import gc
import inspect
import weakref
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim.cover import _integer_generators, cover, exact_points
from selfsim.embedding import (
    WORD_LIMIT,
    Depths,
    EnumerationResult,
    ExchangePair,
    ExcludedWitness,
    IncludedCylinderExchange,
    IncludedReflectedWord,
    IncludedWord,
    check_embedding,
    decompose,
    enumerate_embeddings,
    enumeration_record,
    find_matching_words,
    locate_piece,
    mirror_reduce,
    verdict_record,
)
from selfsim.embedding import _ratio_product_test
from selfsim.errors import (
    BudgetExceeded,
    EmptySet,
    HypothesisViolated,
    NotCovered,
    ParameterOutOfRange,
    StepBudgetExceeded,
    WrongFamilyRange,
)
from selfsim.intervals import Interval, IntervalSet
from selfsim.similitudes import (
    IDENTITY,
    IFS,
    Similitude,
    UnknownAtDepth,
    Word,
    equal_gap,
    four_map_example,
    three_map,
    two_map,
    word_map,
)
from selfsim.verify import words_with_ratio_product

THREE = three_map(F(1, 5), F(3, 10))
SYM = three_map(F(1, 5), F(2, 5))
FOUR = four_map_example()
G1 = Similitude(F(1, 10), F(1, 20))
G2 = Similitude(F(1, 10), F(11, 20))
# overlapping lattice systems with attractor [0, 1]
LATTICE_HALF = IFS(Similitude(F(1, 2), F(k, 8)) for k in range(5))
LATTICE_THIRD = IFS(Similitude(F(1, 3), F(k, 6)) for k in range(5))
SEARCH_SYSTEMS = (
    THREE,
    equal_gap((F(1, 4), F(1, 3))),
    two_map(F(1, 4), F(1, 3)),
    FOUR,
    LATTICE_HALF,
    LATTICE_THIRD,
)


def reference_matching_words(ifs, g, limit=WORD_LIMIT):
    """The word search in Fraction arithmetic: divide out one generator at a
    time, pruning on residual ratio > 1 and on the hull image leaving the
    hull."""
    if g.ratio <= 0:
        return ()
    hull = ifs.hull
    out = []

    def descend(h, prefix):
        if h == IDENTITY:
            out.append(Word(ifs.arity, prefix))
            return
        if h.ratio > 1 or len(prefix) >= limit:
            return
        if not hull.contains_interval(h.map_interval(hull)):
            return
        for i, f in enumerate(ifs.maps, start=1):
            descend(f.invert().compose(h), prefix + (i,))

    descend(g, ())
    return tuple(out)


@st.composite
def search_cases(draw):
    """(system, map, limit): word maps, word maps with a perturbed offset,
    and maps whose ratio need not be a product of generator ratios."""
    ifs = draw(st.sampled_from(SEARCH_SYSTEMS))
    letters = draw(st.lists(st.integers(1, ifs.arity), max_size=5))
    g = word_map(ifs, Word(ifs.arity, tuple(letters)))
    kind = draw(st.sampled_from(["word", "perturbed", "free-ratio"]))
    if kind == "perturbed":
        shift = F(draw(st.integers(-3, 3)), draw(st.integers(1, 64)))
        g = Similitude(g.ratio, g.offset + shift)
    elif kind == "free-ratio":
        ratio = F(draw(st.integers(1, 29)), draw(st.integers(30, 60)))
        offset = F(draw(st.integers(0, 40)), draw(st.integers(1, 40)))
        g = Similitude(ratio, offset)
    limit = draw(st.one_of(st.integers(0, 4), st.just(WORD_LIMIT)))
    return ifs, g, limit


class TestFindMatchingWords:
    def test_exact_word(self):
        f = word_map(THREE, THREE.word(2, 3))
        assert find_matching_words(THREE, f) == (THREE.word(2, 3),)

    def test_identity_is_empty_word(self):
        assert find_matching_words(THREE, IDENTITY) == (THREE.empty_word(),)

    def test_non_word_map_finds_nothing(self):
        assert find_matching_words(THREE, Similitude(F(1, 5), F(1, 10))) == ()
        assert find_matching_words(FOUR, G1) == ()

    def test_negative_ratio_finds_nothing(self):
        assert find_matching_words(SYM, Similitude(F(-1, 5), F(1, 5))) == ()

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_words(self, letters):
        w = Word(3, tuple(letters))
        assert find_matching_words(THREE, word_map(THREE, w)) == (w,)

    @given(search_cases())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_fraction_search(self, case):
        ifs, g, limit = case
        assert find_matching_words(ifs, g, limit) == reference_matching_words(
            ifs, g, limit
        )

    @pytest.mark.parametrize("ifs", SEARCH_SYSTEMS, ids=range(len(SEARCH_SYSTEMS)))
    def test_agrees_on_every_short_word(self, ifs):
        # overlapping systems reach one map by several words; all of them,
        # in order, and under every cap on the length
        for n in range(3):
            for letters in product(range(1, ifs.arity + 1), repeat=n):
                g = word_map(ifs, Word(ifs.arity, letters))
                for limit in (n, n + 1, WORD_LIMIT):
                    assert find_matching_words(ifs, g, limit) == (
                        reference_matching_words(ifs, g, limit)
                    )

    def test_several_words_on_overlapping_system(self):
        # φ_1∘φ_3 = φ_2∘φ_1 on the ratio-1/2 lattice: both offsets are 1/8
        g = word_map(LATTICE_HALF, LATTICE_HALF.word(1, 3))
        words = find_matching_words(LATTICE_HALF, g)
        assert LATTICE_HALF.word(2, 1) in words and len(words) > 1
        assert words == tuple(sorted(words, key=lambda w: w.letters))


def ratio_product_test(ifs):
    return _ratio_product_test(*_integer_generators(ifs))


class TestRatioProductTest:
    @pytest.mark.parametrize("ifs", SEARCH_SYSTEMS, ids=range(len(SEARCH_SYSTEMS)))
    def test_matches_word_enumeration(self, ifs):
        is_product = ratio_product_test(ifs)
        ratios = [f.ratio for f in ifs.maps]
        # products of one to four letters
        products = {
            a * b * c * e for a, b, c, e in product(ratios + [F(1)], repeat=4)
        } - {F(1)}
        # 1/3 is no product on the ratio-1/2 lattice, 1/2 none on ratio-1/3
        others = {F(1, 3), F(1, 2), F(2, 3), F(1, 7), F(3, 40), F(5, 12)}
        for q in sorted(products | others):
            expected = bool(words_with_ratio_product(ifs, q))
            assert is_product(q.numerator, q.denominator, WORD_LIMIT) == expected, q

    def test_one_is_the_empty_product_and_above_one_is_not(self):
        is_product = ratio_product_test(THREE)
        assert is_product(7, 7, 0)
        assert not is_product(6, 5, WORD_LIMIT)

    def test_letter_cap(self):
        is_product = ratio_product_test(LATTICE_HALF)
        assert is_product(1, 8, 3)
        assert not is_product(1, 8, 2)


class TestCheckEmbedding:
    def test_generator_words(self):
        for i, f in enumerate(THREE.maps, start=1):
            verdict = check_embedding(THREE, f)
            assert verdict == IncludedWord(THREE.word(i))

    def test_deep_word(self):
        f = word_map(THREE, THREE.word(2, 3))
        assert check_embedding(THREE, f) == IncludedWord(THREE.word(2, 3))

    def test_reflected_word_on_symmetric_system(self):
        f = word_map(SYM, SYM.word(1)).compose(SYM.reflection())
        verdict = check_embedding(SYM, f)
        assert verdict == IncludedReflectedWord(SYM.word(1), F(1, 2))

    def test_witness_point_gap_depth(self):
        verdict = check_embedding(THREE, Similitude(F(1, 5), F(3, 5)))
        assert verdict == ExcludedWitness(
            point=F(0), gap=Interval(F(1, 2), F(4, 5)), depth=1
        )

    def test_witness_is_sound(self):
        verdict = check_embedding(THREE, Similitude(F(1, 5), F(3, 5)))
        f = Similitude(F(1, 5), F(3, 5))
        assert verdict.point in exact_points(THREE, 4)
        image = f(verdict.point)
        assert not cover(THREE, verdict.depth).parts.contains_point(image)
        assert verdict.gap.lo < image < verdict.gap.hi

    def test_escape_reported_at_depth_zero(self):
        verdict = check_embedding(THREE, Similitude(F(1, 5), F(2)))
        assert isinstance(verdict, ExcludedWitness)
        assert verdict.depth == 0
        assert verdict.gap.lo == F(1)  # escapes past the right hull edge

    def test_escape_left(self):
        verdict = check_embedding(THREE, Similitude(F(1, 5), F(-3)))
        assert isinstance(verdict, ExcludedWitness)
        assert verdict.depth == 0
        assert verdict.gap.hi == F(0)

    def test_cylinder_exchange_g1(self):
        verdict = check_embedding(FOUR, G1)
        assert isinstance(verdict, IncludedCylinderExchange)
        assert verdict.pairs == (
            ExchangePair(FOUR.word(1), FOUR.word(1, 3)),
            ExchangePair(FOUR.word(2), FOUR.word(1, 4)),
            ExchangePair(FOUR.word(3), FOUR.word(2, 1)),
            ExchangePair(FOUR.word(4), FOUR.word(2, 2)),
        )

    def test_cylinder_exchange_g2(self):
        verdict = check_embedding(FOUR, G2)
        assert isinstance(verdict, IncludedCylinderExchange)
        assert verdict.pairs == (
            ExchangePair(FOUR.word(1), FOUR.word(3, 3)),
            ExchangePair(FOUR.word(2), FOUR.word(3, 4)),
            ExchangePair(FOUR.word(3), FOUR.word(4, 1)),
            ExchangePair(FOUR.word(4), FOUR.word(4, 2)),
        )

    def test_exchange_pairs_recheck_by_composition(self):
        verdict = check_embedding(FOUR, G1)
        for pair in verdict.pairs:
            assert G1.compose(word_map(FOUR, pair.branch)) == word_map(
                FOUR, pair.target
            )

    def test_reflected_exchange(self):
        f = G1.compose(FOUR.reflection())
        verdict = check_embedding(FOUR, f)
        assert isinstance(verdict, IncludedCylinderExchange)
        assert all(pair.reflected for pair in verdict.pairs)
        assert verdict.pairs[0] == ExchangePair(
            FOUR.word(1), FOUR.word(2, 2), reflected=True
        )
        sigma = FOUR.reflection()
        for pair in verdict.pairs:
            lhs = f.compose(word_map(FOUR, pair.branch)).compose(sigma)
            assert lhs == word_map(FOUR, pair.target)

    def test_unknown_at_tiny_depths(self):
        touching = three_map(F(1, 4), F(1, 4))
        f = word_map(touching, touching.word(2)).compose(touching.reflection())
        verdict = check_embedding(
            touching, f, point_depth=1, cover_depth=1, branch_depth=1
        )
        assert verdict == UnknownAtDepth(1)

    def test_same_map_excluded_at_default_depths(self):
        touching = three_map(F(1, 4), F(1, 4))
        f = word_map(touching, touching.word(2)).compose(touching.reflection())
        assert isinstance(check_embedding(touching, f), ExcludedWitness)

    def test_rejects_non_contraction(self):
        with pytest.raises(ParameterOutOfRange):
            check_embedding(THREE, Similitude(F(1), F(0)))
        with pytest.raises(ParameterOutOfRange):
            check_embedding(THREE, Similitude(F(3, 2), F(0)))

    def test_rejects_bad_depths(self):
        with pytest.raises(ParameterOutOfRange):
            check_embedding(THREE, THREE.maps[0], point_depth=0)

    def test_open_overlap_query_finishes(self):
        # 1/3 is no product of ratio-1/2 generators, so every branch's word
        # search dies at its root; without the ratio-product prune this
        # check takes minutes
        f = Similitude(F(1, 3), F(1, 5))
        verdict = check_embedding(
            LATTICE_HALF, f, point_depth=4, cover_depth=4, branch_depth=5, budget=625
        )
        assert verdict == UnknownAtDepth(5)

    def test_over_budget_cover_depth_builds_no_cover(self):
        ifs = three_map(F(1, 5), F(3, 10))
        with pytest.raises(BudgetExceeded) as err:
            check_embedding(ifs, Similitude(F(1, 5), F(0)), 4, 10**8, 6)
        assert err.value.requested == 3**13  # the first depth over 10**6
        assert not ifs._memo.get("covers")


class TestDepths:
    def test_fields_follow_the_engine_signatures(self):
        for fn, skip in ((check_embedding, 2), (enumerate_embeddings, 2),
                         (decompose, 3)):
            params = list(inspect.signature(fn).parameters.values())[skip:]
            assert tuple(p.name for p in params) == Depths._fields
            assert tuple(p.default for p in params) == Depths()

    @pytest.mark.parametrize("f", [
        THREE.maps[1],
        Similitude(F(1, 5), F(3, 5)),
        word_map(THREE, THREE.word(2, 3)),
        Similitude(F(-1, 5), F(1, 5)),
    ])
    def test_splat_equals_keyword_call(self, f):
        keywords = dict(point_depth=2, cover_depth=3, branch_depth=2, budget=10**4)
        assert check_embedding(THREE, f, *Depths(2, 3, 2, 10**4)) == check_embedding(
            THREE, f, **keywords
        )


class TestLocatePiece:
    def pieces(self):
        return [
            IntervalSet((f.map_interval(THREE.hull),)) for f in THREE.maps
        ]

    def test_refined_cylinder_found(self):
        target = cover(THREE, 1).parts.affine(F(1, 5), F(3, 10))  # phi_2 image
        assert locate_piece(target, self.pieces()) == 1

    def test_zero_based_first_piece(self):
        target = cover(THREE, 1).parts.affine(F(1, 5), F(0))
        assert locate_piece(target, self.pieces()) == 0

    def test_hypothesis_violated(self):
        # the whole cover's gap (3/10) is not below the piece distance (1/10)
        with pytest.raises(HypothesisViolated):
            locate_piece(cover(THREE, 1).parts, self.pieces())

    def test_not_covered(self):
        target = IntervalSet((Interval(F(21, 100), F(22, 100)),))
        with pytest.raises(NotCovered):
            locate_piece(target, self.pieces())

    def test_hypothesis_checked_before_coverage(self):
        # target violates both: gap 1/2 in a target escaping the union
        target = IntervalSet(
            (Interval(F(2, 10), F(21, 100)), Interval(F(71, 100), F(72, 100)))
        )
        with pytest.raises(HypothesisViolated):
            locate_piece(target, self.pieces())

    def test_needs_two_pieces(self):
        with pytest.raises(ParameterOutOfRange):
            locate_piece(IntervalSet((Interval(F(0), F(1)),)), [self.pieces()[0]])

    def test_empty_target(self):
        with pytest.raises(EmptySet):
            locate_piece(IntervalSet(()), self.pieces())


class TestDecompose:
    def test_word(self):
        f = word_map(THREE, THREE.word(2, 3))
        assert decompose(THREE, f) == IncludedWord(THREE.word(2, 3))

    def test_reflected(self):
        f = word_map(SYM, SYM.word(1)).compose(SYM.reflection())
        assert decompose(SYM, f) == IncludedReflectedWord(SYM.word(1), F(1, 2))

    def test_long_word(self):
        w = THREE.word(1, 3, 2, 2, 3, 1)
        assert decompose(THREE, word_map(THREE, w)) == IncludedWord(w)

    def test_fallback_to_exchange(self):
        verdict = decompose(FOUR, G1)
        assert isinstance(verdict, IncludedCylinderExchange)
        assert verdict == check_embedding(FOUR, G1)

    def test_non_embedding_witnessed(self):
        verdict = decompose(THREE, Similitude(F(1, 5), F(3, 5)))
        assert isinstance(verdict, ExcludedWitness)

    def test_step_budget(self):
        f = word_map(THREE, THREE.word(2, 3))
        with pytest.raises(StepBudgetExceeded):
            decompose(THREE, f, max_steps=1)

    def test_rejects_non_contraction(self):
        with pytest.raises(ParameterOutOfRange):
            decompose(THREE, Similitude(F(1), F(0)))

    @pytest.mark.parametrize("steps", [0, -1])
    def test_rejects_nonpositive_steps(self, steps):
        f = word_map(THREE, THREE.word(2, 3))
        with pytest.raises(ParameterOutOfRange, match="max_steps >= 1"):
            decompose(THREE, f, max_steps=steps)

    @pytest.mark.parametrize("depth", ["point_depth", "cover_depth", "branch_depth"])
    def test_rejects_bad_depths(self, depth):
        # rejected up front, even where the greedy descent never falls back
        f = word_map(THREE, THREE.word(2, 3))
        with pytest.raises(ParameterOutOfRange, match="depths >= 1"):
            decompose(THREE, f, **{depth: 0})

    def test_touching_family_words(self):
        touching = three_map(F(1, 4), F(1, 4))
        w = touching.word(1, 3, 3, 1)
        assert decompose(touching, word_map(touching, w)) == IncludedWord(w)


class TestEnumerate:
    def test_three_map_plus(self):
        result = enumerate_embeddings(THREE, F(1, 5))
        assert result.certified_offsets == (F(0), F(3, 10), F(4, 5))
        assert result.candidates == ()
        assert all(
            isinstance(v, IncludedWord) for _, v in result.certified
        )

    def test_three_map_minus_empty(self):
        result = enumerate_embeddings(THREE, F(-1, 5))
        assert result.certified == ()
        assert result.candidates == ()

    def test_symmetric_minus(self):
        result = enumerate_embeddings(SYM, F(-1, 5))
        assert result.certified_offsets == (F(1, 5), F(3, 5), F(1))
        assert all(
            isinstance(v, IncludedReflectedWord) for _, v in result.certified
        )

    def test_two_map_product_ratio(self):
        ifs = two_map(F(1, 4), F(1, 3))
        result = enumerate_embeddings(ifs, F(1, 12))
        assert result.certified_offsets == (F(1, 6), F(2, 3))
        assert enumerate_embeddings(ifs, F(-1, 12)).certified == ()

    def test_four_map_inventories(self):
        plus = enumerate_embeddings(FOUR, F(1, 10))
        assert plus.certified_offsets == (
            F(0), F(1, 20), F(1, 10), F(1, 2), F(11, 20), F(3, 5),
        )
        minus = enumerate_embeddings(FOUR, F(-1, 10))
        assert minus.certified_offsets == (
            F(1, 15), F(7, 60), F(1, 6), F(17, 30), F(37, 60), F(2, 3),
        )

    def test_certified_confirmed_independently(self):
        result = enumerate_embeddings(THREE, F(1, 25))
        assert len(result.certified) == 9
        for f, verdict in result.certified:
            assert check_embedding(THREE, f) == verdict

    def test_every_word_offset_is_certified(self):
        result = enumerate_embeddings(THREE, F(1, 25))
        offsets = set(result.certified_offsets)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert word_map(THREE, THREE.word(i, j)).offset in offsets

    def test_shallow_depths_leave_candidates_but_lose_nothing(self):
        result = enumerate_embeddings(
            THREE, F(1, 5), point_depth=1, cover_depth=1, branch_depth=1
        )
        survivors = list(result.certified_offsets)
        spans = list(result.candidates)
        for t in (F(0), F(3, 10), F(4, 5)):
            assert t in survivors or any(c.contains(t) for c in spans)

    def test_rejects_bad_ratio(self):
        for r in (F(0), F(1), F(-1), F(3, 2)):
            with pytest.raises(ParameterOutOfRange):
                enumerate_embeddings(THREE, r)

    @pytest.mark.parametrize("depth", ["point_depth", "cover_depth", "branch_depth"])
    def test_rejects_bad_depths(self, depth):
        with pytest.raises(ParameterOutOfRange, match="depths >= 1"):
            enumerate_embeddings(THREE, F(1, 5), **{depth: 0})


class TestMirrorReduce:
    UP = three_map(F(1, 5), F(1, 2))

    def test_mirrors_to_lower_range(self):
        f = word_map(self.UP, self.UP.word(2))
        red = mirror_reduce(self.UP, f)
        assert red.mirrored == three_map(F(1, 5), F(3, 10))
        assert red.reflection(F(0)) == F(1)

    def test_round_trip_identity(self):
        f = word_map(self.UP, self.UP.word(2, 1))
        red = mirror_reduce(self.UP, f)
        sigma = red.reflection
        assert sigma.compose(red.conjugate).compose(sigma) == f

    def test_word_translation(self):
        f = word_map(self.UP, self.UP.word(3, 1))
        red = mirror_reduce(self.UP, f)
        assert red.conjugate == word_map(red.mirrored, Word(3, (1, 3)))
        assert red.translate_word(Word(3, (1, 3))) == Word(3, (3, 1))

    def test_lower_range_rejected(self):
        with pytest.raises(WrongFamilyRange):
            mirror_reduce(THREE, THREE.maps[0])

    def test_symmetric_boundary_rejected(self):
        with pytest.raises(WrongFamilyRange):
            mirror_reduce(SYM, SYM.maps[0])

    def test_double_reduction_rejected(self):
        f = word_map(self.UP, self.UP.word(1))
        red = mirror_reduce(self.UP, f)
        with pytest.raises(WrongFamilyRange):
            mirror_reduce(red.mirrored, red.conjugate)

    def test_other_family_rejected(self):
        with pytest.raises(WrongFamilyRange):
            mirror_reduce(FOUR, G1)


class TestRecords:
    def test_word_record(self):
        rec = verdict_record(check_embedding(THREE, THREE.maps[1]))
        assert rec == {"kind": "included-word", "word": [2]}

    def test_reflected_record(self):
        f = word_map(SYM, SYM.word(1)).compose(SYM.reflection())
        rec = verdict_record(check_embedding(SYM, f))
        assert rec == {
            "kind": "included-reflected-word",
            "word": [1],
            "center": "1/2",
        }

    def test_witness_record(self):
        rec = verdict_record(check_embedding(THREE, Similitude(F(1, 5), F(3, 5))))
        assert rec == {
            "kind": "excluded-witness",
            "point": "0",
            "gap": ["1/2", "4/5"],
            "depth": 1,
        }

    def test_exchange_record(self):
        rec = verdict_record(check_embedding(FOUR, G1))
        assert rec["kind"] == "included-cylinder-exchange"
        assert rec["pairs"][0] == {
            "branch": [1],
            "target": [1, 3],
            "reflected": False,
        }

    def test_unknown_record(self):
        rec = verdict_record(UnknownAtDepth(6))
        assert rec == {"kind": "unknown-at-depth", "depth": 6}

    def test_enumeration_record(self):
        rec = enumeration_record(enumerate_embeddings(THREE, F(1, 5)))
        assert rec["ratio"] == "1/5"
        assert [c["offset"] for c in rec["certified"]] == ["0", "3/10", "4/5"]
        assert rec["candidates"] == []
        assert rec["point_depth"] == 4 and rec["cover_depth"] == 8


class TestSystemMemo:
    def test_derived_data_dies_with_the_system(self):
        # a fresh system, so no module-level object holds it
        ifs = three_map(F(1, 5), F(2, 5))
        assert isinstance(check_embedding(ifs, ifs.maps[1]), IncludedWord)
        assert enumerate_embeddings(ifs, F(-1, 5)).certified
        assert ifs._memo["covers"] and ifs._memo["points"]
        ref = weakref.ref(ifs)
        del ifs
        gc.collect()
        assert ref() is None

    def test_memo_is_not_part_of_equality_or_hash(self):
        fresh = three_map(F(1, 5), F(3, 10))
        cover(THREE, 3)
        assert fresh == THREE and hash(fresh) == hash(THREE)
        assert "_memo" not in repr(THREE)

    def test_equal_systems_give_equal_answers(self):
        fresh = four_map_example()
        assert check_embedding(fresh, G1) == check_embedding(FOUR, G1)
        assert len(fresh._memo["covers"]) == 9
