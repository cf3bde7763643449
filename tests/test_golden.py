"""Golden output digests: the CLI's bytes, pinned command by command.

Each command runs in-process through ``cli.main.run`` inside a fresh
directory holding the input files below, so every path in the output is
relative and the bytes do not depend on where the test runs. The digest is
the sha256 of the exit code, stdout, stderr and every file the command
wrote. The help and usage commands (``HELP_COMMANDS``) run instead as
``python -m physcomp`` processes, and their digest covers the exit code,
stdout and stderr. A change that moves output on purpose updates the
digests here and says why in CHANGES.md; print the current table, or the
rows of the commands named, with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from physcomp.cli.main import run

INPUTS = {
    "h.json": '{"dim": 2, "entries": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2e-21, 0.0]]], "units": "J"}\n',
    "flip.json": '{"dim": 2, "entries": [[[0.0, 0.0], [-1e-20, 0.0]], [[-1e-20, 0.0], [0.0, 0.0]]], "units": "J"}\n',
    "deep.json": '{"dim": 2, "entries": [[[-1.602176634e-19, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "units": "J"}\n',
    "shifted.json": '{"dim": 2, "entries": [[[-1e-18, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-9.98e-19, 0.0]]], "units": "J"}\n',
    "rho.json": '{"dim": 2, "entries": [[[0.7, 0.0], [0.1, 0.05]], [[0.1, -0.05], [0.3, 0.0]]]}\n',
    "psi.json": '{"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]}\n',
    "path.json": '{"basis": "ab", "steps": [["a", "b"], ["ab", "ab"]], "target": "abab", "free_energy_joules": [1e-20, 2e-20]}\n',
    "sum-overflow.json": '{"basis": "ab", "steps": [["a", "b"], ["ab", "ab"]], "free_energy_joules": [1e308, 1e308]}\n',
    "limit.json": '{"dim": 2, "entries": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]], "units": "J"}\n',
    "near-limit.json": '{"dim": 2, "entries": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e307, 0.0]]], "units": "J"}\n',
    "dense.json": '{"dim": 2, "entries": [[[3.3e-21, 0.0], [-1.7e-21, 2.9e-21]], [[-1.7e-21, -2.9e-21], [1.1e-21, 0.0]]], "units": "J"}\n',
    "half.json": '{"dim": 2, "entries": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}\n',
    "ground.json": '{"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}\n',
    "third.json": '{"dim": 3, "entries": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]]}\n',
    "psi3.json": '{"dim": 3, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}\n',
    "psi-ev.json": '{"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0]], "units": "eV"}\n',
    "over.json": '{"hbar": 2.109143634e-34, "G": 1.33486e-10, "k_B": 2.761298e-23, "electron_volt": 3.204353268e-19}\n',
    "bool.json": '{"G": true}\n',
    "bad.json": '{\n  "G": 1,\n}\n',
    "huge.json": '{"hbar": 1e300, "G": 1e-300}\n',
    "lp.json": '{"planck_length": 1.0}\n',
    "subnormal.json": '{"hbar": 1e-285}\n',
}
# a d = 160 Hamiltonian long enough (308,885 bytes) to be read through the
# decoded-file cache; diagonal, so its spectrum is exact on any BLAS kernel
INPUTS["large.json"] = json.dumps({
    "dim": 160,
    "entries": [[[k * 1e-22 if j == k else 0.0, 0.0] for j in range(160)] for k in range(160)],
    "units": "J",
}) + "\n"

ALL = ("--format", "human"), ("--format", "json"), ("--format", "csv")
OVER = ("--constants", "over.json")


def _formats(name, argv):
    return [(f"{name}-{fmt[1]}", [*argv, *fmt]) for fmt in ALL]


COMMANDS = dict(
    _formats("constants", ["constants"])
    + _formats("bh", ["bh", "--mass", "1"])
    + _formats("measure-phi-time-ev", ["measure", "phi-time", "--energy", "2", "--energy-unit", "eV", "--time", "1e-12"])
    + _formats("qt-entropy", ["qt", "entropy", "--state", "rho.json"])
    + _formats("qt-entropy-nats", ["qt", "entropy", "--state", "rho.json", "--entropy-unit", "nats"])
    + _formats("qt-gibbs", ["qt", "gibbs", "--ham", "h.json", "--temp", "150"])
    + _formats("assembly", ["assembly", "--target", "abracadabra", "--basis", "abcdr"])
    + _formats("catalog-list", ["catalog", "list"])
    + _formats("catalog-compare", ["catalog", "compare", "--temp", "77", "--power", "100", "--capacitance", "1e-15", "--volts", "0.8"])
    + [
        ("bh-solar", ["bh", "--mass", "1", "--unit", "solar", "--format", "json"]),
        ("bh-planck", ["bh", "--mass", "3", "--unit", "planck"]),
        ("bh-1e-97", ["bh", "--mass", "1e-97", "--format", "json"]),
        ("bh-1e-85", ["bh", "--mass", "1e-85", "--format", "json"]),
        ("bh-timeline", ["bh", "timeline", "--mass", "1e3", "--samples", "5"]),
        ("bh-page-curve-out", ["bh", "page-curve", "--mass", "2", "--unit", "solar", "--samples", "4", "--out", "curve.csv"]),
        ("bh-sweep", ["bh", "--sweep", "1e3:1e30:5"]),
        ("bh-sweep-out", ["bh", "--sweep", "1e-5:1e5:3", "--out", "sweep.csv"]),
        ("bh-timeline-format-json", ["bh", "timeline", "--mass", "1e3", "--samples", "5", "--format", "json"]),
        ("bh-no-mass", ["bh"]),
        ("bh-zero-mass", ["bh", "--mass", "0"]),
        ("bh-bad-sweep", ["bh", "--sweep", "1:2"]),
        ("bh-ops-overflow", ["bh", "--mass", "1e70"]),
        ("bh-lifetime-subnormal", ["bh", "--mass", "4e-103"]),
        ("bh-timeline-subnormal", ["bh", "timeline", "--mass", "4e-103", "--samples", "6"]),
        ("bh-timeline-underflow", ["bh", "timeline", "--mass", "1e-105", "--samples", "3"]),
        ("measure-phi-time", ["measure", "phi-time", "--energy", "1e-18", "--time", "1e-9"]),
        ("measure-ml-time", ["measure", "ml-time", "--energy", "1.5", "--energy-unit", "eV", "--format", "json"]),
        ("measure-phi-space", ["measure", "phi-space", "--smax", "10", "--s", "3.5"]),
        ("measure-free-phi", ["measure", "free-phi", "--delta-f", "1e-20", "--time", "1e-12", "--format", "csv"]),
        ("measure-landauer", ["measure", "landauer", "--temp", "300", "--bits", "8", "--format", "json"]),
        ("measure-binary-entropy", ["measure", "binary-entropy", "--eps", "0.11"]),
        ("measure-ec-exact", ["measure", "ec-space", "--ops", "1e6", "--eps", "0.01"]),
        ("measure-ec-asymptotic", ["measure", "ec-space", "--ops", "1e6", "--eps", "0.01", "--mode", "asymptotic", "--format", "json"]),
        ("measure-bad-eps", ["measure", "binary-entropy", "--eps", "2"]),
        ("measure-bad-temp", ["measure", "landauer", "--temp", "-1", "--bits", "1"]),
        ("measure-phi-time-overflow", ["measure", "phi-time", "--energy", "1e300", "--time", "1e10", "--format", "json"]),
        ("measure-landauer-overflow", ["measure", "landauer", "--temp", "1e300", "--bits", "1e300"]),
        ("measure-landauer-neg-zero", ["measure", "landauer", "--temp", "300", "--bits", "-0"]),
        ("measure-phi-time-neg-zero", ["measure", "phi-time", "--energy", "-0", "--time", "1", "--format", "json"]),
        ("measure-phi-time-subnormal-product", ["measure", "phi-time", "--energy", "1e-200", "--time", "1e-120", "--format", "json"]),
        ("measure-phi-time-limit", ["measure", "phi-time", "--energy", "1e308", "--time", "1"]),
        ("measure-flags-before-op", ["measure", "--format", "json", "ml-time", "--energy", "1"]),
        ("qt-gibbs-save", ["qt", "gibbs", "--ham", "h.json", "--ktemp-joules", "1e-21", "--save-state", "thermal.json", "--format", "json"]),
        ("qt-gibbs-both-temps", ["qt", "gibbs", "--ham", "h.json", "--temp", "1", "--ktemp-joules", "1"]),
        ("qt-gibbs-overflow", ["qt", "gibbs", "--ham", "deep.json", "--temp", "1"]),
        ("qt-gibbs-shifted", ["qt", "gibbs", "--ham", "shifted.json", "--temp", "50", "--format", "json"]),
        ("qt-gibbs-f-eq-zero", ["qt", "gibbs", "--ham", "h.json", "--temp", "1"]),
        ("qt-gibbs-f-eq-zero-json", ["qt", "gibbs", "--ham", "h.json", "--temp", "1", "--format", "json"]),
        ("qt-solve-temp", ["qt", "solve-temp", "--ham", "h.json", "--energy", "5e-22", "--format", "json"]),
        ("qt-solve-temp-range", ["qt", "solve-temp", "--ham", "h.json", "--energy", "1"]),
        ("qt-solve-temp-shifted", ["qt", "solve-temp", "--ham", "shifted.json", "--energy=-9.999e-19"]),
        ("qt-work", ["qt", "work", "--ham", "h.json", "--state", "rho.json", "--temp", "100"]),
        ("qt-work-dense", ["qt", "work", "--ham", "dense.json", "--state", "rho.json", "--temp", "100"]),
        ("qt-evolve-save", ["qt", "evolve", "--ham", "flip.json", "--time", "3e-15", "--state-vector", "psi.json", "--save-vector", "out.json"]),
        ("qt-spread", ["qt", "spread", "--ham", "flip.json", "--state", "rho.json", "--format", "csv"]),
        ("qt-gibbs-limit", ["qt", "gibbs", "--ham", "limit.json", "--temp", "1e300"]),
        ("qt-work-limit", ["qt", "work", "--ham", "limit.json", "--state", "rho.json", "--temp", "300"]),
        ("qt-solve-temp-limit", ["qt", "solve-temp", "--ham", "limit.json", "--energy", "1"]),
        ("qt-spread-near-limit", ["qt", "spread", "--ham", "near-limit.json", "--state", "half.json", "--format", "json"]),
        ("qt-work-near-limit-ground", ["qt", "work", "--ham", "near-limit.json", "--state", "ground.json", "--temp", "300"]),
        ("qt-missing-file", ["qt", "entropy", "--state", "missing.json"]),
        ("qt-ham-as-state", ["qt", "entropy", "--state", "h.json"]),
        ("qt-flags-before-op", ["qt", *OVER, "entropy", "--state", "rho.json"]),
        ("qt-gibbs-large-file", ["qt", "gibbs", "--ham", "large.json", "--temp", "300", "--format", "json"]),
        ("assembly-save", ["assembly", "--target", "abababab", "--basis", "ab", "--save-pathway", "witness.json"]),
        ("assembly-pathway", ["assembly", "--pathway", "path.json", "--format", "json"]),
        ("assembly-pathway-overflow", ["assembly", "--pathway", "sum-overflow.json"]),
        ("assembly-too-long", ["assembly", "--target", "a" * 21, "--basis", "a"]),
        ("assembly-over-budget", ["assembly", "--target", "acbdbadcbdacdbcabdca", "--basis", "abcd"]),
        ("assembly-length-13", ["assembly", "--target", "cfffeadbfabac", "--basis", "abcdef"]),
        ("assembly-bad-symbol", ["assembly", "--target", "abc", "--basis", "ab"]),
        ("assembly-no-target", ["assembly", "--basis", "ab"]),
        ("assembly-bad-json", ["assembly", "--pathway", "bad.json"]),
        ("catalog-system", ["catalog", "list", "--system", "landauer-300K", "--format", "json"]),
        ("catalog-unknown", ["catalog", "compare", "--system", "abacus"]),
        ("catalog-compare-underflow", ["catalog", "compare", "--temp", "1e-320"]),
        ("catalog-op-rate-overflow", ["catalog", "compare", "--power", "1e300", "--system", "landauer-300K"]),
        ("catalog-switch-overflow", ["catalog", "compare", "--capacitance", "1", "--volts", "1e200"]),
        ("qt-gibbs-kt-zero", ["qt", "gibbs", "--ham", "h.json", "--temp", "1e-310"]),
        ("qt-gibbs-kt-subnormal", ["qt", "gibbs", "--ham", "h.json", "--temp", "1e-300"]),
        ("qt-gibbs-ktemp-subnormal", ["qt", "gibbs", "--ham", "h.json", "--ktemp-joules", "1e-320"]),
        ("qt-work-kt-zero", ["qt", "work", "--ham", "h.json", "--state", "rho.json", "--temp", "1e-310"]),
        ("qt-work-size-mismatch", ["qt", "work", "--ham", "h.json", "--state", "third.json", "--temp", "300"]),
        ("qt-spread-size-mismatch", ["qt", "spread", "--ham", "h.json", "--state", "third.json"]),
        ("qt-evolve-size-mismatch", ["qt", "evolve", "--ham", "flip.json", "--time", "1e-15", "--state-vector", "psi3.json"]),
        ("qt-evolve-vector-units", ["qt", "evolve", "--ham", "flip.json", "--time", "1e-15", "--state-vector", "psi-ev.json"]),
        ("bh-out-unwritable", ["bh", "timeline", "--mass", "1e3", "--samples", "3", "--out", "missing/curve.csv"]),
        ("bh-sweep-out-unwritable", ["bh", "--sweep", "1e3:1e30:3", "--out", "missing/sweep.csv"]),
        ("qt-gibbs-save-unwritable", ["qt", "gibbs", "--ham", "h.json", "--temp", "300", "--save-state", "missing/thermal.json"]),
        ("qt-evolve-save-unwritable", ["qt", "evolve", "--ham", "flip.json", "--time", "3e-15", "--state-vector", "psi.json", "--save-vector", "missing/out.json"]),
        ("assembly-save-unwritable", ["assembly", "--target", "abab", "--basis", "ab", "--save-pathway", "missing/witness.json"]),
    ]
    + _formats("over-constants", ["constants", *OVER])
    + [
        ("over-bh", ["bh", "--mass", "1e-6", "--format", "json", *OVER]),
        ("over-bh-timeline", ["bh", "timeline", "--mass", "1e3", "--samples", "4", *OVER]),
        ("over-bh-sweep", ["bh", "--sweep", "1e3:1e30:3", *OVER]),
        ("over-measure-phi-time", ["measure", "phi-time", "--energy", "2", "--energy-unit", "eV", "--time", "1e-12", *OVER]),
        ("over-measure-landauer", ["measure", "landauer", "--temp", "300", "--bits", "8", "--format", "json", *OVER]),
        ("over-catalog", ["catalog", "compare", "--format", "csv", *OVER]),
        ("over-qt-gibbs", ["qt", "gibbs", "--ham", "h.json", "--ktemp-joules", "1e-21", "--format", "json", *OVER]),
        ("over-qt-evolve", ["qt", "evolve", "--ham", "flip.json", "--time", "3e-15", "--state-vector", "psi.json", *OVER]),
        ("over-assembly", ["assembly", "--target", "abab", "--basis", "ab", *OVER]),
        ("over-missing", ["catalog", "list", "--constants", "nope.json"]),
        ("over-bool", ["bh", "--mass", "1", "--constants", "bool.json"]),
        ("over-bad-json", ["constants", "--constants", "bad.json"]),
        ("over-out-of-range", ["constants", "--constants", "huge.json"]),
        ("over-inconsistent", ["bh", "--mass", "1", "--constants", "lp.json"]),
        ("over-subnormal", ["constants", "--constants", "subnormal.json"]),
    ]
)

GOLDEN = {
    "constants-human": "6dd5c296155b5083aff586e584f2f57b966478d1496f0e0162b45abe6953b355",
    "constants-json": "b4d4454bdd221af7ec8f289f16ff70ceec5893737b753e3c1004a26a6cb60842",
    "constants-csv": "f88b094ca5a99bf6b44a74317137b5e705f3c346aa68294e8dd9b384695c6573",
    "bh-human": "d96f3dc997b1aa37298c9e0fccd7fefa475a7717a385a579dfc3e3ba202338b2",
    "bh-json": "acd3c92bf4813346f7c43b7e67cca8ff532099fa24036270dcaf2d2d32382018",
    "bh-csv": "3f692053c801519cb792c9d3246176996888bcbed3712816d8c00d8c1d044b45",
    "measure-phi-time-ev-human": "a3f556b3691f56cdeb11fbac9eb01f1c55ba9421a9b0ac207be5c1d386ff3d8d",
    "measure-phi-time-ev-json": "35d0021471b22127a21c7376e068f436fbedaf82f246b4796538b30c754bdef4",
    "measure-phi-time-ev-csv": "a3d979be25bef176d0fb1e69df88697eae5649600d3accd64f5c70f8bc73e528",
    "qt-entropy-human": "6b8d177e0c19b7e9f4b460f0840059739e9f0f19269a28799860bfc5a8d38eee",
    "qt-entropy-json": "a1af4823ae616bb312bf5db406db2fd61c7a95a66a392a3a7857131e6a3ff30c",
    "qt-entropy-csv": "bd47d74636b79e2dcfa1d7f39aa76e105a24a2fa19ae6a48e8cd34cb73247c1b",
    "qt-entropy-nats-human": "1025f87dfe243778f3d9268a197092bcda8ee014492ffcdb9f49dfe43106ca31",
    "qt-entropy-nats-json": "68a39798e9ce444fa69021f511ac6ab1e860fb733d291ed9ad66bf555d948b40",
    "qt-entropy-nats-csv": "2fcbfcd1d084bc84c7498ef2bd5da82d7010ea95fdcd52bebc57d1860be04a2b",
    "qt-gibbs-human": "2084a79c53ac2269682fcfea209d2d32fdd91ba6a18186281fbc579d07a2ef10",
    "qt-gibbs-json": "ce10fde36d02dd4a95b898ae807d48711eb3edda271b5581dbe8cec54c7d1e04",
    "qt-gibbs-csv": "2b2e95f1ccb645b021c9dc4c5b4b9f27dc937c6e5136795794a21fd90f22a74b",
    "assembly-human": "475a9e81d8eb0d862bc92dd6ac305765626ae1312aadde5336cef55551c371db",
    "assembly-json": "82969116bf201b64ca3d2b7256cdd80c0aef0beb7b5ea7c7d0aca75d5e782108",
    "assembly-csv": "65e2cab6e95b5eb75d513a7ce2d19847822e759a7907055391b71c7092aea5c5",
    "catalog-list-human": "c678cd676a6d8688fb7479e8d7995e1d3309c28d76449cae0dadd3c197385fa3",
    "catalog-list-json": "bd259540759cbb860bec3cd257ce0270a55ca3bf2dd48d0002e247d0f2e8e04c",
    "catalog-list-csv": "f602f2f8556d30aee415ecb74d03098db7ef7474f003c69bb2c3964793585f53",
    "catalog-compare-human": "a3c0ca884325f3f4ecdc7f910519d62850f2b7d46c758c21698da7a2f9b8e184",
    "catalog-compare-json": "0a65ced880dc2eaab915257e8de4981d6b4492f82c1b988eb72e01ccc44e81ca",
    "catalog-compare-csv": "8ac1fb5d092b9923cfcafbdb40c41156521089b6de99ba7bd81f7980ba2fc20b",
    "bh-solar": "b522acc7e1c62e30e15eef202728dabe8084bffa6f03b6c8ec02a3e3e797db0c",
    "bh-planck": "32a63eee532b5c9b27a4ffb5edf56757db6ee8d81c89108544605b56d12f47e4",
    "bh-1e-97": "8460239a162e1d729d0a8bb50e797976c158c3fa669b01b578ac63697c75c9be",
    "bh-1e-85": "7a173f718b1989c2a7eeb78efde2228ad9033977b389c3fe1d424575004c0775",
    "bh-timeline": "5852766c82dec2aae535160ab7e933e05eb01546169e67330049e529e3571087",
    "bh-page-curve-out": "6881dcb06855a0834bc49bed42efbb16f2a53c4539f2574815b787e29b98268c",
    "bh-sweep": "3ca0230cae568b33c82ebb11d9a33a0709c28001c522155111627a0c2ef602c1",
    "bh-sweep-out": "89c90567f18b3843bd9f17a6ee80639e2af75b3cd0b9ac12e13fa51a0860d499",
    "bh-timeline-format-json": "e890ac05da3c68aef015fa3b3c385d30ccc03e93472ee578321a6c31494a94fa",
    "bh-no-mass": "a2826c50cd3d773cb60f8a86dccbebcf86ec638383f78e24ddc94a738da3e87b",
    "bh-zero-mass": "3ebae684cd5f6fb0ff6428b292c0262c6cf5cef996fd5be02188c1c2e83df87d",
    "bh-bad-sweep": "8f767b2ab9321324b91a6d34f5e4c905080ccb36da313c7e3c632f89aadced68",
    "bh-ops-overflow": "afd03f2909ac6418f639c18d6203040f20ccaf719efead777eeb18f7ae5dceba",
    "bh-lifetime-subnormal": "102f8fe1cec9f99d5cd8d66a2acea94201dadfe6f79122fd451596d4febb8806",
    "bh-timeline-subnormal": "102f8fe1cec9f99d5cd8d66a2acea94201dadfe6f79122fd451596d4febb8806",
    "bh-timeline-underflow": "8eb3fc19bcd0132f07579cb07bf224bd0c0fbcfbb3cebc19b7881d3def43f437",
    "measure-phi-time": "6af94ee83d68f681761d7478b572df8f4d96d48948178555cad1deeb0fb1d606",
    "measure-ml-time": "caa4197686a82129295e330b5932104f90fff960a632a869ad1af7917d2da142",
    "measure-phi-space": "aed3aadaa94745ec6b03a799bad8e7d1ac5cf42222621afeff9c64d6281fe301",
    "measure-free-phi": "575f92bd237ff5bbc65dc2218e0686e2d457b0db6268ed4b96d865efc888c944",
    "measure-landauer": "21d867e56276a0d5ff3d55f1c31f8cd0523335121b9851afde0a796f593d9c92",
    "measure-binary-entropy": "89ec440ec8c0b2e25f319d5601a95937581b05a452debb16031863cca73c1eec",
    "measure-ec-exact": "af4d9146c0170c96a702509f4698d2c3c8078b53757a8e51694b0a9eb67c6cf6",
    "measure-ec-asymptotic": "6aa3c0c8d70b1548177d1565da5ce3d2fac87b032ebcf01b99d33af3c8d38214",
    "measure-bad-eps": "2f9cc6fb5d98fa7432cc5b3d4663b36f952738f9176448cc1f9cfc9555df882f",
    "measure-bad-temp": "80237ee1d8af47bbf73d2a2151f4148722878974a962a2d6b69cd121e1ece348",
    "measure-phi-time-overflow": "eba1c7699e048d086d6cdeeadc46531067367aac94dba92d8d63d6401e5cfdee",
    "measure-landauer-overflow": "96e58dd1680b49cf1b1c7e91d33ade067fa9c6979c394e4fabce5b2c9a884090",
    "measure-landauer-neg-zero": "d1f500b764543507d41c826eebf7650fe486664a88eee28cec49baaf95df7583",
    "measure-phi-time-neg-zero": "0e8a0c096e0b6ceed4410472de9e0f9399c29ab4d69ad6cad51612cf284f0993",
    "measure-phi-time-subnormal-product": "1a37bcc6c819aecacbcba09e5c4f4cf10f989cbdaac5204db8bc615df4d39727",
    "measure-phi-time-limit": "6156add6e433a67395d904bfba62af280fa5b0470a6fa1bc5e22c3d7cb4c5140",
    "measure-flags-before-op": "11a3c5f526efa8f4511ffcb470dfc8b32592560585be46a9fdf3c2fbf1131594",
    "qt-gibbs-save": "fefd925262bb1047a290ed729c6f17bf02b1a162cc1bcbc105b3787828ec5613",
    "qt-gibbs-both-temps": "4e6d828e8a590b6f7b3f715d363a06dc7faeaf2d0b6b23f19cab3613b6246a5e",
    "qt-gibbs-overflow": "19d90e286836719a94265753af858c757bf82b47a4228108740ba440baca0e3e",
    "qt-gibbs-shifted": "554f59b1ba7980241a024a427c531a39c65cb376871380929b70033dcaa8978d",
    "qt-gibbs-f-eq-zero": "a9ce9903b23794a44df5c09780385ce7adc663cd3a98c8182dd0323525722884",
    "qt-gibbs-f-eq-zero-json": "ad9fa17d999424086c63bfcaba9ab9938e6a3cfbdb8fde3165424804f6c90e45",
    "qt-solve-temp": "66ba2a80fd40c3072a572b535a5b9acfbaeee97d8a34bedda9edad13cd09f6ee",
    "qt-solve-temp-range": "144075307ed8c39e4168e3613ad340535abc14c3b1b049f94e09c00bd52154b8",
    "qt-solve-temp-shifted": "06952a2414e170e422e0ca27c3398455d18344fcf9c1678fcd1d8ca3ecfba92f",
    "qt-work": "a193658048d571e26f2960aba37fec8fd2db3c4b7555ba74dfd7f5df8d1d7d48",
    "qt-work-dense": "aa55f9fa3e0ae268c9c6afbc755c2e01ebb410be8af9b9c5a149c4010e798c06",
    "qt-evolve-save": "c9b9d245ba699c5a64f989906b6c812562c3aad63d1b67229e2214ca957a6497",
    "qt-spread": "27390062e2f5887efcbd23a48c9688073c5651e0f05f073312db1eed400cfcd1",
    "qt-gibbs-limit": "6f550190821905e1eda0807737415a0dab736a048fd239822806a13e35214971",
    "qt-work-limit": "41520200f1c429fbb19fc9b0901e9630b7f75fad21a01e799b7644e81b67e885",
    "qt-solve-temp-limit": "581d5f2785b69e90bb950714430520f5aee67b6618a8a6410c63deae8fbd2a64",
    "qt-spread-near-limit": "c58dc7b9f6d69b212b2d094bef02698493fe8aeeee796cae06b30d9ca44f0ee3",
    "qt-work-near-limit-ground": "f7a99f3033f70eb532b4e21a114cdff8f1ad96d6d882380478a278f67183299d",
    "qt-missing-file": "ee221f46f1a0544163d888e5f59892b40c7aa03a8492f39427e4deafd7f77d23",
    "qt-ham-as-state": "08f187a01fde1a4c85d119023c45a06ed72ed4ef74f559e080dee71f845faf1d",
    "qt-flags-before-op": "11a3c5f526efa8f4511ffcb470dfc8b32592560585be46a9fdf3c2fbf1131594",
    "qt-gibbs-large-file": "d87a7a62f094b375a00cb0be28cd48b9eb6de9dff71a1cf60bed3b0b3b36a2e2",
    "assembly-save": "490cd7eed20e807745748050af802494764fd2883e7aa4fe2b74e71cb7f81aa4",
    "assembly-pathway": "7acf126b23d52a1d68123529780deee7e2e16b9e2d526b1843d4c1ea39b25f71",
    "assembly-pathway-overflow": "05ece62422a32332b63805128ec84b309d1a2812dedd21a9afdb341ebf577843",
    "assembly-too-long": "1d07e6ec571eea4c1ca1eca11a1aee5b5ea235eac55ba82f4734fdc78cec5b8f",
    "assembly-over-budget": "bc24c94bb289b16da5d0780f9d918a0649c72d6bbcced2e4ced7a5e168908a81",
    "assembly-length-13": "315a0fba0392bf926549a0b7a136096b41ba997fa88715eb3b768dd467daeba1",
    "assembly-bad-symbol": "8f2e9c5ee0741d8d43e125c35686dd49731c6cc69cc4e506d4873ac9736ef0dc",
    "assembly-no-target": "054936fc561b16b1a2bce88a936917263ed6a6892393b0e6dcfcc541ee792577",
    "assembly-bad-json": "a1cbad501a75bdad2db10e1fb0be37bbe3241a80c914ca623915f27c3b6d86e1",
    "catalog-system": "acd235d77971a9efd648e9d78df318e6b49da43731e7883957148045f0410486",
    "catalog-unknown": "8c7d9d85f089c53136d7109630146d94f9b98036bf0bb39ef93643e91dcb0578",
    "catalog-compare-underflow": "2cf75da894e3d914570a3d7edc4c005c1b87f163ac93df4d04179f1c3d26fe55",
    "catalog-op-rate-overflow": "81f81d92c811c101d9b66d64be9ba95a11dd4e234b57037b4b1def2829449648",
    "catalog-switch-overflow": "f3f286f1350189632368fabf10c5e8e9442826fdd178dbce3f8cd562dec2e972",
    "qt-gibbs-kt-zero": "99c172621b602cd782ba4af2a9eb2d1fa1755d8ee9cb9a44007a65c5eecaf304",
    "qt-gibbs-kt-subnormal": "eac86061201150c04b65139c5193b6e112c52e97be1be5584b83f68ed858908a",
    "qt-gibbs-ktemp-subnormal": "da44643bc6fc0fd74a3d21a65d6cbb4351dfc9f0be0aded636379434d7e5510f",
    "qt-work-kt-zero": "99c172621b602cd782ba4af2a9eb2d1fa1755d8ee9cb9a44007a65c5eecaf304",
    "qt-work-size-mismatch": "776fac7f5c0e61bde5236305616cfde960ae4c1f5a3ca84f339c3235a2e2b3a5",
    "qt-spread-size-mismatch": "776fac7f5c0e61bde5236305616cfde960ae4c1f5a3ca84f339c3235a2e2b3a5",
    "qt-evolve-size-mismatch": "776fac7f5c0e61bde5236305616cfde960ae4c1f5a3ca84f339c3235a2e2b3a5",
    "qt-evolve-vector-units": "93deda5ab72a7c6615189d482844d4d27ee0c9a73827f39fc2ff646c44b1b179",
    "bh-out-unwritable": "e524db0c36f1066d2f5e1b7ed291058fc6e6bd7b5927bd791b5a3cb1a80b7caa",
    "bh-sweep-out-unwritable": "96f625844b8f11f738c33c18bc650793036d37a7879657b4ca73e688ac34e9e4",
    "qt-gibbs-save-unwritable": "c82c2906b912e9789bc5073ea99ed1b7b74e8ab9cc1a59d83de3acc4eed97a92",
    "qt-evolve-save-unwritable": "af71ec92e7823d1863531844ff2740bd4bff17d4cd662606353ed704c4972122",
    "assembly-save-unwritable": "0f169ff6d190d78118b0090b8add3fc7934dd8f426df3c632db63550b4d92ae9",
    "over-constants-human": "869a855c66858d89c406335d590955bc698f77e5b11f13350170c26cb9a1ea58",
    "over-constants-json": "d7408e3b24cade3acd039fc933cb6314d337afddc37fcb36226235b7ad16166e",
    "over-constants-csv": "556a59e635d8551c0cafa9a657d31a5b945481cb45d16bd42a863dc0c3e35cbd",
    "over-bh": "51af84193d33752bc2b4cdcb155fc28cae54da64b54109fb43078f9c78a5bf73",
    "over-bh-timeline": "5af66ba932f89507afd60dfefe54e8f6a08c1e14e601b9dde01b16ad768ca1db",
    "over-bh-sweep": "0776b2123c51389269b55be1ea30c855099ecf04cbbde330ec10d4a8ecce825f",
    "over-measure-phi-time": "d5e8cd3823042cfdfd1f5aa498ccefebae9137f7cde5eee584408f1f5c078bfc",
    "over-measure-landauer": "62b1e75d645f309ec8c6e906338f7e0d14b12a67f571a7f52ff18ccd5988d54a",
    "over-catalog": "fcd329977ccf00ee1e3e568c32f771275a530a792e2c0fa402f704c195eaebfd",
    "over-qt-gibbs": "76130ed419b7452c1bbf1510293b6982c2ea5ed181efd25dbb97315181a9fc43",
    "over-qt-evolve": "8ccfe13056aae982cd01a413e94722b3bde2e8b89c91e1d45a95d5a21e978b3b",
    "over-assembly": "d58f5058daf20e7cfb76c770f2081bd9ac05d7ad1e16c17670b6ee9c8a43bd64",
    "over-missing": "8a400232d312d1aa71734dba99925991f116dc6121837ac12f08f5b5fd8703ee",
    "over-bool": "bce329ec2fa67bab1aaddeeb0ad03bcd0fb8f34c4ead741bca7e85408051caeb",
    "over-bad-json": "a1cbad501a75bdad2db10e1fb0be37bbe3241a80c914ca623915f27c3b6d86e1",
    "over-out-of-range": "d9813983ed6a2da813bacd08f16d8ef9bc15d4d18c2929ab6276278d6382fd71",
    "over-inconsistent": "877b4801a81333ff96b0c9e30da6b039c0070f320bd78a24ea9251b1ef0f00ff",
    "over-subnormal": "7f127c133dabfb5c23d89bf4386910f6e23c415ebb5cc58d3742146879640ab5",
}


def digest(argv, where: Path) -> str:
    """sha256 of one command's exit code, stdout, stderr and written files."""
    for name, text in INPUTS.items():
        (where / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        code = run(list(argv), out, err)
    finally:
        os.chdir(cwd)
    written = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(where.iterdir())
        if p.name not in INPUTS
    }
    blob = json.dumps(
        {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_digest(name, tmp_path):
    assert digest(COMMANDS[name], tmp_path) == GOLDEN.get(name), " ".join(COMMANDS[name])


def test_qt_output_does_not_depend_on_the_cache(tmp_path, monkeypatch):
    # each qt command against an empty decoded-file cache, then a warm one
    stored = 0
    for name, argv in COMMANDS.items():
        if argv[0] != "qt":
            continue
        cache = tmp_path / name / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        for run_dir in ("cold", "warm"):
            (tmp_path / name / run_dir).mkdir(parents=True)
            assert digest(argv, tmp_path / name / run_dir) == GOLDEN[name], f"{run_dir}: {' '.join(argv)}"
        stored += len(list(cache.glob("physcomp/*")))
    assert stored == 1  # large.json's entry


def test_every_command_is_pinned():
    assert set(GOLDEN) == set(COMMANDS)
    assert set(HELP_GOLDEN) == set(HELP_COMMANDS)


# the CLI's help and usage text, each command run as a user runs it: a
# `python -m physcomp` process, at a fixed terminal width since argparse
# wraps to COLUMNS; the layout is Python 3.11's argparse
MEASURE_OPS = ("phi-time", "ml-time", "phi-space", "free-phi", "landauer", "binary-entropy", "ec-space")
QT_OPS = ("entropy", "gibbs", "solve-temp", "work", "evolve", "spread")
HELP_COMMANDS = {
    "help": ["-h"],
    "version": ["--version"],
    "no-command": [],
    **{f"help-{c}": [c, "-h"] for c in ("constants", "bh", "measure", "qt", "assembly", "catalog")},
    **{f"help-measure-{op}": ["measure", op, "-h"] for op in MEASURE_OPS},
    **{f"help-qt-{op}": ["qt", op, "-h"] for op in QT_OPS},
    "usage-bad-command": ["warp-drive"],
    "usage-flag-before-command": ["--format", "json", "constants"],
    "usage-bad-qt-op": ["qt", "warp"],
    "usage-missing-value": ["bh", "--mass"],
}

HELP_GOLDEN = {
    "help": "6ee426795c8604558cf36c17feda3da2bb0393e18430c720832bdee39c259f43",
    "version": "1794e2f558f2d0e238db3f72b34752768ca0b23e27873b49556615bc6566fe45",
    "no-command": "4f3155027b08b2d57e2aaccbd820478d4b94cf7dc18fbc73b116630b50b65676",
    "help-constants": "d7a01a3cdb39c2c3658c9dce61f2b5e5828167c777399344fbc121afd0912eb3",
    "help-bh": "f1ed7236e880170b60e338c329d356fed2debf339555cf76febf764e58d86706",
    "help-measure": "79e232f9c95f1904f5569f0b75844716259e673db11b2e549ccfc681c9b53ce2",
    "help-qt": "12e46bf08bf1d26112440608097ec1336a352d17c2269a86841b4dd859d33b2a",
    "help-assembly": "5b6d937d7f5f33b0a4fef8a1e700baffcb387223c158ebbb874f581fc506011a",
    "help-catalog": "6dd07c804d8c1b1e240db79d23c2026af47c2588a33f9bb3de819170c7db2c38",
    "help-measure-phi-time": "059750ee9bf0f18600fc6b9486b0b596381e1a164d206ce48a710ed6be90bbfe",
    "help-measure-ml-time": "3c241c2bfa91f75ce5bd87c695f8afb37be9d2bb322a3cdf7384152d5d1973c8",
    "help-measure-phi-space": "1f34318d28000b2fb7ed9c6a0fa2464ddcc654b03661d1dd569677c31ad08497",
    "help-measure-free-phi": "ad9cd49f8f36eb25b9dc70344cceb667a01f413198cf91a91cad6423c7c4c32d",
    "help-measure-landauer": "6540185e6d504aa641973031acd64a7f6538375f16615aeac6a102f310c8315e",
    "help-measure-binary-entropy": "ed157cdb25bc6eb940e901cd7cbc5429191a3a35a01f4a62e5338e4705899104",
    "help-measure-ec-space": "f36aa30aaa2bdaebd8135bad9620824e46f2e3335b8723ccf78046fdde349471",
    "help-qt-entropy": "c7349dbe835a65279e209793f3e5624d72f52946ca9891b0cae8d9896b8721bf",
    "help-qt-gibbs": "929bb18140c8b8b6e709b6ffd15d4f5a2e0f45fe752932760e4246ff37d09624",
    "help-qt-solve-temp": "f26b9efcc67c516d4d67fb33bb082159d0f2c88be576b999c5a35ff85f35c84a",
    "help-qt-work": "ce6c2b1f403c8fab8e44e3bcd92b651096f5713150c0102d63074e6c71298a52",
    "help-qt-evolve": "531312b06b8682e8d3563ccd1903ea1111d4a3941ec270fed57cc320a5f6fbdf",
    "help-qt-spread": "dc9054a85d46e388e2cd7027d97c9207672e16865613093403b64b9bf0589fee",
    "usage-bad-command": "d0cc6255a51b5169b604574eace84819174364d14effe8ac3c6488254de28b24",
    "usage-flag-before-command": "1f4b28c7674edca757c564608c92fb5af3fa673dbbefd1688dfd8aa969b533da",
    "usage-bad-qt-op": "e854bc8324f952ecfe86504566bc31ca558c5d1b5681de583663068a019b67b2",
    "usage-missing-value": "2475d2690321b36e800b80ba2c07c222b41f21178a281773b05e675ef1c50c0f",
}


def help_digest(argv) -> str:
    """sha256 of the exit code, stdout and stderr of one `python -m physcomp` process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env.update(COLUMNS="80", PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "physcomp", *argv], env=env, capture_output=True, text=True)
    blob = json.dumps({"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(HELP_COMMANDS))
def test_help_and_usage(name):
    assert help_digest(HELP_COMMANDS[name]) == HELP_GOLDEN.get(name), " ".join(HELP_COMMANDS[name])


def _openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name")).lower() and platform.machine() in ("x86_64", "AMD64")


# OpenBLAS picks a kernel for the CPU at run time; OPENBLAS_CORETYPE forces one
@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs OpenBLAS on x86-64")
@pytest.mark.parametrize("kernel", [None, "Sandybridge", "Nehalem"])
def test_qt_output_does_not_depend_on_the_blas_kernel(kernel):
    qt = [name for name, argv in COMMANDS.items() if argv[0] == "qt"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    table = subprocess.run(
        [sys.executable, __file__, *qt], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert table == "".join(f'    "{name}": "{GOLDEN[name]}",\n' for name in qt)


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        if sys.argv[1:] and name not in sys.argv[1:]:
            continue
        with tempfile.TemporaryDirectory() as d:
            sys.stdout.write(f'    "{name}": "{digest(argv, Path(d))}",\n')
    for name, argv in HELP_COMMANDS.items():
        if not sys.argv[1:] or name in sys.argv[1:]:
            sys.stdout.write(f'    "{name}": "{help_digest(argv)}",\n')
