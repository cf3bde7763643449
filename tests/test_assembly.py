"""Assembly index search, witness pathways, and pathway file format."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_assembly_index,
    deepening_inputs,
    plain_deepening_sequence,
    top_down_assembly_index,
)


@functools.lru_cache(maxsize=None)
def oracle_index(target: str) -> int:
    # cached so the hypothesis and example tests never re-run the oracle
    return brute_force_assembly_index(target, {"a", "b"})
from physcomp.assembly import (
    AssemblyPathway,
    assembly_index,
    doubling_lower_bound,
    greedy_doubling_upper_bound,
    load_pathway,
    pathway_free_phi,
    pathway_from_dict,
    write_pathway,
)
from physcomp.assembly import search
from physcomp.assembly.search import _witness, solve_sequence
from physcomp.errors import FileFormatError, InputError, NumericalOverflow
from physcomp.units import ENERGY, LENGTH, Quantity

def joules(x):
    return Quantity(x, ENERGY, "J")


class TestAssemblyIndexExamples:
    def test_atomic_target_is_zero_steps(self):
        index, pathway = assembly_index("a", {"a"})
        assert index == 0
        assert pathway.steps == ()
        assert pathway.target == "a"

    def test_doubling_example(self):
        index, pathway = assembly_index("aaaa", {"a"})
        assert index == 2
        assert pathway.steps == (("a", "a"), ("aa", "aa"))

    def test_reuse_example(self):
        index, pathway = assembly_index("abab", {"a", "b"})
        assert index == 2
        assert pathway.steps == (("a", "b"), ("ab", "ab"))

    def test_witness_is_valid_and_matches_index(self):
        for target in ("ab", "aabb", "abcabc", "aaaaaaaa", "abbabaab"):
            index, pathway = assembly_index(target, set(target))
            pathway.validate()
            assert len(pathway.steps) == index
            assert pathway.products[-1] == target

    def test_extra_basis_symbols_are_harmless(self):
        index, _ = assembly_index("aaaa", {"a", "b", "c"})
        assert index == 2


class TestGuards:
    def test_symbol_not_in_basis(self):
        with pytest.raises(InputError, match="are not in the basis"):
            assembly_index("abc", {"a", "b"})

    def test_empty_target(self):
        with pytest.raises(InputError, match="target must be a non-empty string"):
            assembly_index("", {"a"})

    def test_target_too_large(self):
        with pytest.raises(InputError, match="target length 21 exceeds the supported 20"):
            assembly_index("a" * 21, {"a"})

    def test_search_past_the_node_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(search, "NODE_BUDGET", 10)
        with pytest.raises(
            InputError,
            match="length-9 target over 3 symbols exceeds the budget of 10 search nodes",
        ):
            assembly_index("abcbacbca", {"a", "b", "c", "d"})

    def test_multicharacter_basis_symbol_rejected(self):
        with pytest.raises(InputError, match="basis symbols must be single characters"):
            assembly_index("ab", {"ab"})


class TestBounds:
    def test_doubling_lower_bound(self):
        assert doubling_lower_bound(1) == 0
        assert doubling_lower_bound(2) == 1
        assert doubling_lower_bound(5) == 3
        assert doubling_lower_bound(16) == 4

    def test_lower_bound_holds_on_search_results(self):
        for target in ("ab", "abb", "abba", "ababab", "aabbaabb", "abababab"):
            index, _ = assembly_index(target, set(target))
            assert index >= math.ceil(math.log2(len(target)))

    def test_greedy_upper_bound_bounds_search(self):
        for target in ("abba", "aabbab", "abababab", "abcabcab"):
            index, _ = assembly_index(target, set(target))
            assert index <= greedy_doubling_upper_bound(target) <= len(target) - 1


class TestOracleEquivalence:
    def test_exhaustive_short_strings(self):
        # every binary string of length 1..7: exact agreement with the
        # enumeration oracle
        for length in range(1, 8):
            for tup in itertools.product("ab", repeat=length):
                target = "".join(tup)
                got, pathway = assembly_index(target, {"a", "b"})
                assert got == oracle_index(target), target
                assert len(pathway.steps) == got

    def test_random_longer_strings(self):
        import random

        rng = random.Random(97)
        targets = [
            "".join(rng.choice("ab") for _ in range(rng.randint(8, 12)))
            for _ in range(8)
        ]
        for target in targets:
            got, _ = assembly_index(target, {"a", "b"})
            assert got == oracle_index(target), target


    def test_top_down_oracle_matches_brute_force(self):
        # the two oracles share no code or enumeration order: every ab
        # string of length <= 8 and every abc string of length <= 6
        for alphabet, longest in (("ab", 8), ("abc", 6)):
            for length in range(1, longest + 1):
                for tup in itertools.product(alphabet, repeat=length):
                    target = "".join(tup)
                    want = (
                        oracle_index(target)
                        if alphabet == "ab"
                        else brute_force_assembly_index(target, set(alphabet))
                    )
                    assert top_down_assembly_index(target, alphabet) == want, target


# (target, index, steps) from the plain deepening search: the deep
# exhaustive passes where a wrong prune would show
HARD_WITNESSES = [
    (
        "abaaaabbbbbbba",
        10,
        (
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("b", "bb"),
            ("aa", "aa"), ("bbb", "ba"), ("ab", "aaaa"), ("bbb", "bbbba"),
            ("abaaaa", "bbbbbbba"),
        ),
    ),
    (
        "aaabaababbbabbb",
        8,
        (
            ("a", "b"), ("b", "b"), ("a", "ab"), ("a", "aab"), ("ab", "bb"),
            ("aaab", "aab"), ("abbb", "abbb"), ("aaabaab", "abbbabbb"),
        ),
    ),
]


@pytest.mark.parametrize("target, index, steps", HARD_WITNESSES)
def test_hard_witness_is_pinned(target, index, steps):
    got, pathway = assembly_index(target, {"a", "b"})
    assert (got, pathway.steps) == (index, steps)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["ab", "abc"]).flatmap(
        lambda alphabet: st.tuples(
            st.just(alphabet), st.text(alphabet, min_size=1, max_size=11)
        )
    )
)
def test_kernel_matches_plain_deepening(case):
    alphabet, target = case
    index, pathway = assembly_index(target, set(alphabet))
    if len(target) == 1:
        assert (index, pathway.steps) == (0, ())
        return
    subs, lengths, splits, target_id = deepening_inputs(target)
    seq = plain_deepening_sequence(
        lengths, splits, target_id, len(target),
        doubling_lower_bound(len(target)), greedy_doubling_upper_bound(target),
    )
    assert solve_sequence(subs) == seq
    plain = _witness(target, frozenset(alphabet), subs, seq)
    assert (index, pathway.steps) == (len(seq), plain.steps)


class TestPathway:
    def test_free_phi_sums_steps(self):
        p = AssemblyPathway(
            basis=frozenset("ab"),
            steps=(("a", "b"), ("ab", "a"), ("aba", "ab")),
            target="abaab",
            step_free_energy=(joules(2.0), joules(3.0), joules(5.0)),
        )
        assert pathway_free_phi(p).magnitude == 10.0

    @pytest.mark.parametrize(
        "energies, total",
        [([1e308, -1e308], 0.0), ([3e-308, -2.9e-308], 1e-309)],
        ids=["cancels-to-zero", "subnormal"],
    )
    def test_exact_free_energy_sums_are_results(self, energies, total):
        p = pathway_from_dict(
            {"basis": "ab", "steps": [["a", "b"], ["ab", "ab"]], "free_energy_joules": energies}
        )
        assert pathway_free_phi(p).magnitude == total

    def test_free_energy_sum_overflow_raises(self):
        p = pathway_from_dict(
            {"basis": "ab", "steps": [["a", "b"], ["ab", "ab"]], "free_energy_joules": [1e308, 1e308]}
        )
        with pytest.raises(NumericalOverflow, match="sum of step free energies"):
            pathway_free_phi(p)

    def test_empty_pathway_is_zero(self):
        p = AssemblyPathway(basis=frozenset("a"), steps=(), target="a")
        assert pathway_free_phi(p).magnitude == 0.0

    def test_unbuilt_operand_rejected(self):
        with pytest.raises(InputError, match="neither a basis symbol nor an earlier product"):
            AssemblyPathway(
                basis=frozenset("ab"),
                steps=(("ab", "b"),),  # "ab" never built
                target="abb",
            )

    def test_final_product_must_equal_target(self):
        with pytest.raises(InputError, match="does not equal target"):
            AssemblyPathway(
                basis=frozenset("ab"), steps=(("a", "b"),), target="ba"
            )

    def test_missing_annotation(self):
        p = AssemblyPathway(
            basis=frozenset("ab"), steps=(("a", "b"),), target="ab"
        )
        with pytest.raises(InputError, match="pathway carries no per-step free energies"):
            pathway_free_phi(p)

    def test_wrong_annotation_count(self):
        with pytest.raises(InputError, match="2 free energies for 1 steps"):
            AssemblyPathway(
                basis=frozenset("ab"),
                steps=(("a", "b"),),
                target="ab",
                step_free_energy=(joules(1.0), joules(2.0)),
            )

    def test_wrong_annotation_dimension(self):
        with pytest.raises(InputError, match="step 0: free energy must be in joules"):
            AssemblyPathway(
                basis=frozenset("ab"),
                steps=(("a", "b"),),
                target="ab",
                step_free_energy=(Quantity(1.0, LENGTH),),
            )


class TestPathwayFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "p.json")
        p = AssemblyPathway(
            basis=frozenset("ab"),
            steps=(("a", "b"), ("ab", "ab")),
            target="abab",
            step_free_energy=(joules(1.5), joules(2.5)),
        )
        write_pathway(path, p)
        back = load_pathway(path)
        assert back.steps == p.steps
        assert back.target == p.target
        assert pathway_free_phi(back).magnitude == 4.0

    def test_target_inferred_from_last_step(self):
        p = pathway_from_dict({"basis": "ab", "steps": [["a", "b"], ["ab", "ab"]]})
        assert p.target == "abab"

    def test_invalid_step_shape(self):
        with pytest.raises(FileFormatError, match=r"steps\[1\]"):
            pathway_from_dict({"basis": "ab", "steps": [["a", "b"], ["ab"]]})

    def test_invalid_pathway_reported_with_position(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"basis": "ab", "steps": [["ab", "b"]]}')
        with pytest.raises(FileFormatError, match="step 0"):
            load_pathway(str(path))

    def test_bad_energies(self):
        with pytest.raises(FileFormatError, match="free_energy_joules"):
            pathway_from_dict(
                {"basis": "a", "steps": [["a", "a"]], "free_energy_joules": ["x"]}
            )

    def test_empty_pathway_needs_target(self):
        with pytest.raises(FileFormatError, match="target"):
            pathway_from_dict({"basis": "a", "steps": []})
        p = pathway_from_dict({"basis": "a", "steps": [], "target": "a"})
        assert p.target == "a"
