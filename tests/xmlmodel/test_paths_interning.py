"""Unit tests for the PR-2 path-interning layer.

The implication oracle relies on paths being interned (equal values are the
same object, hashes precomputed) and on containment verdicts persisting
across calls; these tests pin the observable guarantees.
"""

from repro.xmlmodel.paths import (
    PathExpression,
    PathStep,
    StepKind,
    clear_containment_cache,
    concat,
    contains,
    parse_path,
)

from tests.oracles.containment import recursive_containment


class TestStepInterning:
    def test_equal_steps_are_identical(self):
        assert PathStep.label("book") is PathStep.label("book")
        assert PathStep.attribute("isbn") is PathStep.attribute("@isbn")
        assert PathStep.descendant() is PathStep.descendant()

    def test_distinct_steps_are_distinct(self):
        assert PathStep.label("book") is not PathStep.label("chapter")
        assert PathStep.label("x") is not PathStep.attribute("x")

    def test_invalid_steps_still_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            PathStep(StepKind.DESCENDANT, "named")
        with pytest.raises(ValueError):
            PathStep(StepKind.LABEL, None)

    def test_hash_matches_value_semantics(self):
        assert hash(PathStep.label("a")) == hash(PathStep.label("a"))


class TestExpressionInterning:
    def test_equal_expressions_are_identical(self):
        first = PathExpression([PathStep.label("a"), PathStep.descendant()])
        second = PathExpression([PathStep.label("a"), PathStep.descendant()])
        assert first is second

    def test_normalisation_interns_to_the_same_object(self):
        collapsed = PathExpression(
            [PathStep.descendant(), PathStep.descendant(), PathStep.label("a")]
        )
        single = PathExpression([PathStep.descendant(), PathStep.label("a")])
        assert collapsed is single

    def test_parse_is_cached_and_interned(self):
        assert parse_path("//book/chapter") is parse_path("//book/chapter")
        # Different spellings of the same expression intern to one object.
        assert parse_path("////book/chapter") is parse_path("//book/chapter")
        assert parse_path(".") is PathExpression.epsilon()

    def test_concat_interns(self):
        joined = concat(parse_path("//book"), parse_path("chapter"))
        assert joined is parse_path("//book/chapter")
        assert concat() is PathExpression.epsilon()
        assert concat(parse_path("a"), PathExpression.epsilon()) is parse_path("a")

    def test_truediv_uses_interned_concat(self):
        assert parse_path("a") / "b" is parse_path("a/b")


class TestCopyAndPickle:
    def test_pickle_reinterns(self):
        import pickle

        path = parse_path("a/b/@c")
        assert pickle.loads(pickle.dumps(path)) is path
        step = PathStep.label("book")
        assert pickle.loads(pickle.dumps(step)) is step

    def test_copy_and_deepcopy_preserve_identity(self):
        import copy

        path = parse_path("//book/chapter")
        assert copy.copy(path) is path
        assert copy.deepcopy(path) is path

    def test_deepcopy_of_containers_round_trips(self):
        import copy

        from repro.keys.key import parse_key

        key = parse_key("K2 = (//book, (chapter, {@number}))")
        clone = copy.deepcopy(key)
        assert clone == key and clone.context is key.context

    def test_pool_entries_are_reclaimed(self):
        import gc

        expressions = [parse_path(f"reclaim{i}/me{i}") for i in range(100)]
        grown = len(PathExpression._pool)
        del expressions
        parse_path.cache_clear()
        gc.collect()
        assert len(PathExpression._pool) < grown


class TestProperSplits:
    def test_proper_splits_are_the_inner_prefix_splits(self):
        path = parse_path("//a/b/@c")
        inner = [
            (prefix, suffix)
            for prefix, suffix in path.prefixes()
            if not prefix.is_epsilon and not suffix.is_epsilon
        ]
        assert list(path.proper_splits()) == inner
        assert list(parse_path("a").proper_splits()) == []
        assert list(PathExpression.epsilon().proper_splits()) == []

    def test_splitting_does_not_keep_the_path_alive(self):
        import gc

        steps = tuple(PathStep.label(f"split_leak{i}") for i in range(4))
        path = PathExpression(steps)
        assert len(list(path.proper_splits())) == 3
        # With the cycle collector off, only reference counting can free
        # the path: anything the split accessor kept that refers back to
        # the path (a cached trivial split, say) would keep it pooled.
        gc.disable()
        try:
            del path
            assert steps not in PathExpression._pool
        finally:
            gc.enable()
        gc.collect()
        assert steps not in PathExpression._pool
        assert all(steps[:cut] not in PathExpression._pool for cut in range(1, 4))


class TestContainmentMemo:
    def test_repeated_verdicts_are_stable(self):
        covering = parse_path("//book//section")
        covered = parse_path("//book/chapter/section")
        assert contains(covering, covered)
        assert contains(covering, covered)
        clear_containment_cache()
        assert contains(covering, covered)

    def test_full_table_is_cleared_not_frozen(self, monkeypatch):
        import repro.xmlmodel.paths as paths

        monkeypatch.setattr(paths, "CONTAINMENT_CACHE_LIMIT", 4)
        clear_containment_cache()
        pairs = [(parse_path(f"//x{n}"), parse_path(f"a/x{n}")) for n in range(10)]
        for covering, covered in pairs:
            assert contains(covering, covered)
            assert len(paths._containment_cache) <= 4
        # The newest verdict is memoised even though the bound was hit.
        assert (pairs[-1][1], pairs[-1][0]) in paths._containment_cache
        clear_containment_cache()

    def test_naive_mode_is_scoped(self):
        import repro.xmlmodel.paths as paths

        covering = parse_path("//a")
        covered = parse_path("a/b/a")
        fast = contains(covering, covered)
        with recursive_containment():
            assert paths.contains is not contains
            assert paths.contains(covering, covered) == fast
        assert paths.contains is contains
        assert contains(covering, covered) == fast

    def test_naive_mode_restored_on_error(self):
        import repro.xmlmodel.paths as paths

        try:
            with recursive_containment():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert paths.contains is contains
