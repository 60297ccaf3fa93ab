"""Property-based engine equivalence: random documents × random queries.

Strategy: generate a small random document over a fixed tag alphabet and
a random XPath expression from the supported subset, then require every
SQL engine to return exactly the oracle's node set.  This hammers the
fragment splitter, the regex compiler, the 4.5 statics and the join
emission far beyond the hand-written cases.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Database,
    EdgePPFEngine,
    EdgeStore,
    NativeEngine,
    PPFEngine,
    NaiveEngine,
    AccelEngine,
    AccelStore,
    ShreddedStore,
    infer_schema,
)
from repro.baselines.native import NativeEngine as _Native
from repro.plan.passes import DEFAULT_PASS_NAMES
from repro.xmltree.nodes import Document, ElementNode

#: Every subset of the optimizer pipeline, in pipeline order — from the
#: unoptimized plan (no passes) to the full default set.
_PASS_COMBINATIONS = [
    combo
    for size in range(len(DEFAULT_PASS_NAMES) + 1)
    for combo in itertools.combinations(DEFAULT_PASS_NAMES, size)
]

#: internal tags never carry text; leaf tags always do.  Value
#: comparisons target only leaf tags, where XPath string-value equals the
#: stored direct text (the engines' documented comparison semantics).
_INTERNAL = ["a", "b", "c", "d"]
_LEAVES = ["v", "w", "p"]
_TAGS = _INTERNAL + _LEAVES
#: ``p`` is the decimal-typed leaf: lexical forms a numeric column would
#: rewrite (trailing zeros, a bare sign) next to ones it would keep.
_DECIMALS = ["134.20", "1.50", "2.0", "0.10", "-0.75", "-3", "7"]

# -- documents ---------------------------------------------------------------


@st.composite
def documents(draw):
    def build(depth):
        leaf = depth >= 3 or draw(st.booleans())
        if leaf and draw(st.booleans()):
            element = ElementNode(draw(st.sampled_from(_LEAVES)))
            if element.name == "p":
                element.append_text(draw(st.sampled_from(_DECIMALS)))
            else:
                element.append_text(str(draw(st.integers(0, 5))))
        else:
            element = ElementNode(draw(st.sampled_from(_INTERNAL)))
            if depth < 3:
                for _ in range(draw(st.integers(0, 3))):
                    element.append(build(depth + 1))
        if draw(st.booleans()):
            element.set("k", str(draw(st.integers(0, 3))))
        return element

    root = ElementNode(draw(st.sampled_from(_INTERNAL)))
    for _ in range(draw(st.integers(0, 3))):
        root.append(build(1))
    return Document(root, name="random")


# -- queries -----------------------------------------------------------------

_AXES = [
    "",  # child
    "descendant::",
    "descendant-or-self::",
    "parent::",
    "ancestor::",
    "ancestor-or-self::",
    "following::",
    "preceding::",
    "following-sibling::",
    "preceding-sibling::",
]

_tests = st.sampled_from(_TAGS + ["*"])


@st.composite
def predicates(draw):
    kind = draw(
        st.sampled_from(
            [
                "attr_exists", "attr_eq", "path", "text_eq", "decimal_cmp",
                "not", "or",
            ]
        )
    )
    if kind == "attr_exists":
        return "[@k]"
    if kind == "attr_eq":
        return f"[@k={draw(st.integers(0, 3))}]"
    if kind == "path":
        return f"[{draw(_tests)}]"
    if kind == "text_eq":
        return f"[{draw(st.sampled_from(_LEAVES))}={draw(st.integers(0, 5))}]"
    if kind == "decimal_cmp":
        op = draw(st.sampled_from(["=", "!=", "<", ">", ">="]))
        literals = ["134.2", "134.1", "1.5", "2", "0.1", "-0.75", "-1"]
        return f"[p {op} {draw(st.sampled_from(literals))}]"
    if kind == "not":
        return f"[not({draw(_tests)})]"
    return f"[{draw(_tests)} or @k]"


@st.composite
def queries(draw):
    steps = []
    count = draw(st.integers(1, 4))
    for index in range(count):
        axis = draw(st.sampled_from(_AXES)) if index else draw(
            st.sampled_from(["", "descendant::"])
        )
        test = draw(_tests)
        predicate = draw(predicates()) if draw(st.booleans()) else ""
        steps.append(f"{axis}{test}{predicate}")
    return "/" + "/".join(steps)


def _oracle_ids(document, expression):
    return sorted(n.node_id for n in _Native(document).execute(expression))


@given(documents(), queries())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sql_engines_match_oracle(document, expression):
    expected = _oracle_ids(document, expression)

    schema = infer_schema([document])
    store = ShreddedStore.create(Database.memory(), schema)
    store.load(document)
    # A second store with collected statistics: the costed passes only
    # act when a path summary exists, so this copy exercises the
    # cost-based pipeline while plain ``store`` covers the heuristics.
    costed_store = ShreddedStore.create(Database.memory(), schema)
    costed_store.load(document)
    costed_store.collect_statistics()
    edge_store = EdgeStore.create(Database.memory())
    edge_store.load(document)
    accel_store = AccelStore.create(Database.memory())
    accel_store.load(document)

    engines = {
        "ppf": PPFEngine(store),
        "ppf_costed": PPFEngine(costed_store),
        "ppf_no45": PPFEngine(store, path_filter_optimization=False),
        "ppf_dewey": PPFEngine(store, prefer_fk_joins=False),
        "edge": EdgePPFEngine(edge_store),
        "naive": NaiveEngine(store),
        "accel": AccelEngine(accel_store),
    }
    for name, engine in engines.items():
        got = sorted(engine.execute(expression).ids)
        assert got == expected, (
            f"{name} disagrees on {expression!r}: {got} != {expected}\n"
            f"{engine.explain(expression)}"
        )


@given(documents(), st.sampled_from(_LEAVES))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_text_projection_returns_the_lexical_form(document, leaf):
    """``text()`` is what the document said — ``134.20``, not a
    number's rendering of it — on every mapping."""
    expression = f"//{leaf}/text()"
    expected = [node.value for node in _Native(document).execute(expression)]
    store = ShreddedStore.create(Database.memory(), infer_schema([document]))
    store.bulk_load([document])
    edge_store = EdgeStore.create(Database.memory())
    edge_store.load(document)
    accel_store = AccelStore.create(Database.memory())
    accel_store.load(document)
    for engine in (
        PPFEngine(store),
        EdgePPFEngine(edge_store),
        AccelEngine(accel_store),
    ):
        assert engine.execute(expression).values == expected


@given(documents(), queries())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_pass_combination_matches_oracle(document, expression):
    """Optimizer passes must be semantics-preserving independently and
    in every combination: each subset of the pipeline (including the
    empty, fully unoptimized plan) returns the oracle's node set."""
    expected = _oracle_ids(document, expression)

    store = ShreddedStore.create(Database.memory(), infer_schema([document]))
    store.load(document)
    # With statistics collected, the costed passes actually transform
    # plans (they no-op on summary-less stores), so each combination
    # sweeps the cost-based pipeline too.
    store.collect_statistics()

    for combination in _PASS_COMBINATIONS:
        engine = PPFEngine(store, passes=combination)
        got = sorted(engine.execute(expression).ids)
        assert got == expected, (
            f"passes={combination} disagree on {expression!r}: "
            f"{got} != {expected}\n{engine.explain(expression)}"
        )
