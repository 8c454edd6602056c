import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slabsm.problem import (ProblemError, ProblemSpec, builtin_problem,
                            builtin_reference_c, connection_strength,
                            load_problem, problem_from_dict,
                            validate_scattering)


def test_builtin_test1_dimensions():
    spec = builtin_problem("test1")
    assert spec.G == 10
    assert spec.sigma_t[0] == pytest.approx(2.49756)
    assert spec.n_cells == 128
    assert spec.width == 32.0
    assert spec.n_half == 8
    assert np.all(spec.Q == 1.0)


def test_builtin_test2_dimensions():
    spec = builtin_problem("test2")
    assert spec.G == 7
    assert spec.sigma_t[0] == pytest.approx(0.159206)


def test_builtin_scattering_ratios_match_published():
    for name in ("test1", "test2"):
        spec = builtin_problem(name)
        report = validate_scattering(spec, builtin_reference_c(name))
        assert report.passed, (name, report.max_abs_dev)
        assert report.max_abs_dev <= 1e-4


def test_row_shift_column_six():
    # with the ingestion shift, column-6 outflow over sigma_t,6 gives 0.900
    spec = builtin_problem("test1")
    c6 = spec.sigma_s[:, 5].sum() / spec.sigma_t[5]
    assert c6 == pytest.approx(0.9, abs=1e-4)
    # and group 1 feeds nothing into group 6
    assert spec.sigma_s[5, 0] == 0.0


def test_absorption_nonnegative_builtins():
    for name in ("test1", "test2"):
        spec = builtin_problem(name)
        assert np.all(spec.sigma_a() >= 0.0)


def test_unknown_builtin():
    with pytest.raises(ProblemError):
        builtin_problem("test99")


def test_single_group_document():
    spec = problem_from_dict({
        "groups": 1, "sigma_t": [1.0], "sigma_s": [[0.5]], "source": [1.0],
        "width": 4.0, "cells": 8, "quad_half_order": 2,
    })
    assert spec.scattering_ratio()[0] == pytest.approx(0.5)
    assert spec.sigma_a()[0] == pytest.approx(0.5)


def test_zero_scattering_ratio():
    spec = ProblemSpec(1, [2.0], [[0.0]], [1.0], width=1.0, n_cells=2,
                       n_half=1)
    assert spec.scattering_ratio()[0] == 0.0


def test_load_problem_roundtrip(tmp_path):
    doc = {
        "groups": 2,
        "sigma_t": [1.0, 2.0],
        "sigma_s": [[0.2, 0.1], [0.3, 0.5]],
        "source": [1.0, 0.0],
        "width": 10.0,
        "cells": 16,
        "quad_half_order": 4,
        "bc_left": "vacuum",
        "bc_right": "vacuum",
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    spec = load_problem(path)
    assert spec.G == 2
    assert np.allclose(spec.sigma_s, doc["sigma_s"])


def test_load_problem_parse_failure(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProblemError, match="parse"):
        load_problem(path)


def test_load_problem_missing_key(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"groups": 1}))
    with pytest.raises(ProblemError, match="missing"):
        load_problem(path)


def test_load_problem_unreadable_path(tmp_path):
    with pytest.raises(ProblemError, match="cannot read config"):
        load_problem(tmp_path / "no-such.json")
    with pytest.raises(ProblemError, match="cannot read config"):
        load_problem(tmp_path)


def test_load_problem_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ProblemError, match="must be a JSON object"):
        load_problem(path)


def test_dimension_mismatch():
    with pytest.raises(ProblemError):
        ProblemSpec(2, [1.0, 1.0], [[0.1]], [1.0, 1.0], width=1.0,
                    n_cells=4, n_half=2)


def test_spec_keeps_read_only_copies():
    sigma_t, sigma_s, Q = np.ones(2), np.full((2, 2), 0.25), np.ones(2)
    spec = ProblemSpec(2, sigma_t, sigma_s, Q, width=1.0, n_cells=4,
                       n_half=2)
    for given, kept in ((sigma_t, spec.sigma_t), (sigma_s, spec.sigma_s),
                        (Q, spec.Q)):
        assert given.flags.writeable and not kept.flags.writeable
        assert kept.flags.c_contiguous
        given[0] = -5.0
        assert np.all(kept >= 0.25)


def test_replace_rechecks_the_spec():
    # a spec made by dataclasses.replace was not checked: with c_1 near
    # 2.9 source iteration reported converged and MLSM diverged
    spec = builtin_problem("test1")
    with pytest.raises(ProblemError, match="exceeds 1"):
        dataclasses.replace(spec, sigma_s=3 * spec.sigma_s)
    with pytest.raises(ProblemError, match="cell count must be a whole"):
        dataclasses.replace(spec, n_cells=2.5)
    varied = dataclasses.replace(spec, Q=[2] * spec.G, n_cells=64.0,
                                 width=16)
    assert type(varied.n_cells) is int and type(varied.width) is float
    assert varied.Q.dtype == float and not varied.Q.flags.writeable
    assert varied.sigma_s is not spec.sigma_s
    assert np.array_equal(varied.sigma_s, spec.sigma_s)


@pytest.mark.parametrize("changes, match", [
    ({"groups": 0, "sigma_t": [], "sigma_s": [], "source": []},
     "group count must be >= 1"),
    ({"source": [1.0, 1.0]}, "source must have 1 entries"),
    ({"sigma_t": [0.0]}, "sigma_t entries must be positive"),
    ({"sigma_t": [-1.0]}, "sigma_t entries must be positive"),
    ({"width": 0.0}, "slab width must be positive"),
    ({"width": -2.0}, "slab width must be positive"),
    ({"cells": 0}, "cell count must be >= 1"),
    ({"quad_half_order": 0}, "quad_half_order must be >= 1"),
    ({"groups": -1}, "group count must be >= 1"),
    ({"cells": -1}, "cell count must be >= 1"),
    ({"quad_half_order": -1}, "quad_half_order must be >= 1"),
    # a count below 1 fails before any array or width check
    ({"groups": 0}, "group count must be >= 1"),
    ({"cells": 0, "width": 0.0}, "cell count must be >= 1"),
])
def test_invalid_spec_rejected(changes, match):
    with pytest.raises(ProblemError, match=match):
        problem_from_dict(_one_group_doc(**changes))


def test_negative_cross_section():
    with pytest.raises(ProblemError, match="negative"):
        ProblemSpec(1, [1.0], [[-0.1]], [1.0], width=1.0, n_cells=4,
                    n_half=2)


def test_supercritical_rejected():
    with pytest.raises(ProblemError, match="exceeds 1"):
        ProblemSpec(1, [1.0], [[1.0 + 1e-6]], [1.0], width=1.0, n_cells=4,
                    n_half=2)


def _one_group_doc(**changes):
    doc = {"groups": 1, "sigma_t": [1.0], "sigma_s": [[0.5]],
           "source": [1.0], "width": 1.0, "cells": 4, "quad_half_order": 2}
    doc.update(changes)
    return doc


def test_non_vacuum_bc_rejected():
    with pytest.raises(ProblemError, match="vacuum"):
        problem_from_dict(_one_group_doc(bc_left="reflecting"))


def test_unknown_config_keys_rejected():
    # loaded with these ignored, the slab would run with vacuum on both sides
    doc = _one_group_doc(bc_rigth="reflecting", albedo=0.3)
    with pytest.raises(ProblemError,
                       match="unknown config keys: 'bc_rigth', 'albedo'"):
        problem_from_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("cells", 16.9), ("groups", 1.7), ("groups", True), ("cells", "16"),
    ("quad_half_order", 2.5), ("quad_half_order", False),
])
def test_count_must_be_a_whole_number(key, value):
    # truncating these would silently run a different problem
    with pytest.raises(ProblemError, match="whole number"):
        problem_from_dict(_one_group_doc(**{key: value}))


@pytest.mark.parametrize("key, value", [
    ("sigma_t", [math.nan]), ("sigma_s", [[math.nan]]), ("source", [math.inf]),
    ("width", math.nan), ("width", math.inf),
])
def test_non_finite_data_rejected(key, value):
    with pytest.raises(ProblemError, match="finite"):
        problem_from_dict(_one_group_doc(**{key: value}))


@pytest.mark.parametrize("key, value", [
    ("width", True), ("source", [False]), ("sigma_t", ["1.0"]),
    ("sigma_s", [["0.5"]]), ("sigma_t", [1, True]), ("width", "1.0"),
])
def test_non_number_data_rejected(key, value):
    # numpy reads true as 1 and "1.0" as 1.0: each ran another problem
    with pytest.raises(ProblemError, match=f"{key} must hold JSON numbers"):
        problem_from_dict(_one_group_doc(**{key: value}))


_ONE_GROUP = {"G": 1, "sigma_t": [1.0], "sigma_s": [[0.5]], "Q": [1.0],
              "width": 4.0, "n_cells": 2, "n_half": 1}


@pytest.mark.parametrize("changes, match", [
    ({"sigma_t": ["1.0"], "sigma_s": [[True]], "Q": ["0.5"], "width": "4"},
     "sigma_t must hold JSON numbers"),
    ({"sigma_s": [[True]]}, "sigma_s must hold JSON numbers"),
    ({"sigma_s": ((0.5, "0"),)}, "sigma_s must hold JSON numbers"),
    ({"Q": [None]}, "source must hold JSON numbers"),
    ({"width": "4"}, "slab width must hold JSON numbers"),
    ({"width": True}, "slab width must hold JSON numbers"),
    ({"width": [4.0]}, "slab width must hold JSON numbers"),
    ({"width": np.ones(1)}, "slab width must hold JSON numbers"),
    ({"sigma_t": np.array([True])}, "sigma_t must hold JSON numbers"),
    ({"sigma_t": [np.True_]}, "sigma_t must hold JSON numbers"),
    ({"Q": np.array(["0.5"])}, "source must hold JSON numbers"),
    ({"sigma_t": np.array([1.0], dtype=object)},
     "sigma_t must hold JSON numbers"),
    ({"sigma_t": np.array([1.0 + 0.5j])}, "sigma_t must hold JSON numbers"),
    ({"G": 2, "sigma_t": [1.0, [2.0]], "sigma_s": np.zeros((2, 2)),
      "Q": [1.0, 1.0]}, "malformed sigma_t"),
    ({"sigma_t": [10**400]}, "malformed sigma_t"),
    ({"width": 10**400}, "malformed slab width"),
])
def test_spec_applies_the_config_number_rules(changes, match):
    # built directly, a spec took true as 1 and "0.5" as 0.5, and a ragged
    # or oversized value raised a bare ValueError or OverflowError
    with pytest.raises(ProblemError, match=match):
        ProblemSpec(**{**_ONE_GROUP, **changes})


def test_spec_takes_numbers_in_lists_tuples_and_arrays():
    spec = ProblemSpec(1, (np.float32(1.0),), [np.array([0.5])],
                       np.array([1], dtype=np.int32), width=np.int64(4),
                       n_cells=2, n_half=1)
    for kept, value in ((spec.sigma_t, [1.0]), (spec.sigma_s, [[0.5]]),
                        (spec.Q, [1.0])):
        assert kept.dtype == np.float64 and np.array_equal(kept, value)
    assert type(spec.width) is float and spec.width == 4.0


def test_specs_compare_and_hash_by_identity():
    # field-wise == compared arrays and raised, and hash() raised
    spec, twin = builtin_problem("test1"), builtin_problem("test1")
    assert spec == spec and spec != twin
    assert hash(spec) == hash(spec)
    assert spec in {spec} and twin not in {spec}


_SCALARS =st.one_of(st.booleans(), st.text("1.e", max_size=3), st.none(),
                     st.integers(-2, 3), st.floats(-1.0, 3.0),
                     st.floats(allow_nan=True, allow_infinity=True))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3),
                       max_leaves=9)


def _is_json_number(value) -> bool:
    if isinstance(value, list):
        return all(_is_json_number(v) for v in value)
    return type(value) in (int, float)


@st.composite
def _config_docs(draw):
    """A valid document with G = 1 or 2, in which up to two values are
    replaced by random ones or have one number replaced."""
    G = draw(st.integers(1, 2))

    def row(low, high):
        number = st.one_of(st.floats(low, high), st.integers(int(low), 1))
        return draw(st.lists(number, min_size=G, max_size=G))

    doc = {"groups": G, "sigma_t": row(1.0, 3.0),
           "sigma_s": [row(0.0, 0.4) for _ in range(G)],
           "source": row(0.0, 1.0),
           "width": draw(st.one_of(st.floats(0.5, 10.0), st.integers(1, 9))),
           "cells": draw(st.integers(1, 8)),
           "quad_half_order": draw(st.integers(1, 4))}
    # a list, not a set: a set of strings iterates in hash order
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2,
                             unique=True)):
        doc[key] = (draw(_VALUES) if draw(st.booleans())
                    else _replace_leaf(draw, doc[key]))
    return doc


def _replace_leaf(draw, value):
    """value with one number, at any depth, replaced by a random scalar."""
    if isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [_replace_leaf(draw, value[i])] + value[i + 1:]
    return draw(_SCALARS)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_config_docs())
def test_config_loads_or_raises_problem_error(doc):
    # a document either fails with ProblemError or gives a finite spec read
    # from JSON numbers only
    try:
        spec = problem_from_dict(doc)
    except ProblemError:
        return
    G = spec.G
    for key, value, shape in (("sigma_t", spec.sigma_t, (G,)),
                              ("sigma_s", spec.sigma_s, (G, G)),
                              ("source", spec.Q, (G,))):
        assert _is_json_number(doc[key])
        assert value.dtype == np.float64 and value.shape == shape
        assert np.all(np.isfinite(value))
        assert np.array_equal(value, np.asarray(doc[key], dtype=float))
    assert _is_json_number(doc["width"])
    assert math.isfinite(spec.width) and spec.width == doc["width"]


# -- connection strength -----------------------------------------------------

def test_strength_test1_spot_values():
    S = connection_strength(builtin_problem("test1"))
    assert S[1, 0] == pytest.approx(1.0)
    assert S[3, 1] == pytest.approx(0.53, abs=0.005)
    assert S[5, 0] == 0.0           # confirms the row-6 shift
    assert S[6, 7] == pytest.approx(1.0)
    assert S[3, 2] == pytest.approx(0.36, abs=0.005)


def test_strength_test2_spot_values():
    S = connection_strength(builtin_problem("test2"))
    assert S[5, 6] == pytest.approx(0.26, abs=0.005)
    assert S[2, 0] == pytest.approx(5.5e-3, rel=0.05)


def test_strength_properties():
    for name in ("test1", "test2"):
        spec = builtin_problem(name)
        S = connection_strength(spec)
        assert np.all(S >= 0.0) and np.all(S <= 1.0)
        assert np.all(np.diag(S) == 0.0)
        # every coupled row has a unit off-diagonal maximum
        for g in range(spec.G):
            row = spec.sigma_s[g].copy()
            row[g] = 0.0
            if row.max() > 0:
                off = np.delete(S[g], g)
                assert off.max() == pytest.approx(1.0)


def test_strength_scale_invariance():
    spec = builtin_problem("test2")
    scaled = ProblemSpec(spec.G, spec.sigma_t * 3.0, spec.sigma_s * 3.0,
                         spec.Q, width=spec.width, n_cells=spec.n_cells,
                         n_half=spec.n_half)
    S1 = connection_strength(spec)
    S2 = connection_strength(scaled)
    assert np.allclose(S1, S2, atol=1e-14)


def test_strength_zero_row():
    spec = ProblemSpec(2, [1.0, 1.0], [[0.0, 0.0], [0.4, 0.1]], [1.0, 1.0],
                       width=1.0, n_cells=2, n_half=1)
    S = connection_strength(spec)
    assert np.all(S[0] == 0.0)
    assert S[1, 0] == pytest.approx(1.0)


def _strength_by_rows(spec):
    """The row-by-row definition that connection_strength computes in one
    masked divide."""
    S = np.zeros((spec.G, spec.G))
    for g in range(spec.G):
        row = spec.sigma_s[g].copy()
        row[g] = 0.0
        if row.max() > 0.0:
            S[g] = spec.sigma_s[g] / row.max()
        S[g, g] = 0.0
    return S


def test_strength_is_the_row_loop_bitwise():
    rng = np.random.RandomState(4)
    specs = [builtin_problem("test1"), builtin_problem("test2")]
    for G in (2, 3, 5, 8):
        # sparse rows, some with no off-diagonal entry at all
        sigma_s = rng.rand(G, G) * (rng.rand(G, G) < 0.4)
        specs.append(ProblemSpec(G, sigma_s.sum(axis=0) + 0.5, sigma_s,
                                 np.ones(G), width=1.0, n_cells=2, n_half=1))
    for spec in specs:
        S, ref = connection_strength(spec), _strength_by_rows(spec)
        assert np.array_equal(S, ref)
        assert np.array_equal(np.signbit(S), np.signbit(ref))


def test_strength_needs_two_groups():
    spec = ProblemSpec(1, [1.0], [[0.5]], [1.0], width=1.0, n_cells=2,
                       n_half=1)
    with pytest.raises(ProblemError):
        connection_strength(spec)


def test_validate_reference_length():
    spec = builtin_problem("test2")
    with pytest.raises(ProblemError):
        validate_scattering(spec, [0.5, 0.5])
