"""The per-evaluation result records are named tuples: construction,
field order, immutability, hashing, repr and pickling; and the records the
library builds without their constructors are well formed."""

import pickle

import numpy as np
import pytest

from gmem import bending_geometry as bg
from gmem.bending_geometry import BendingTangents, SurfacePointGeometry
from gmem.invariants import (CurvatureInvariants, InvariantState,
                             LogInvariantState, invariants_C_kappa)
from gmem import membrane_material as mm
from gmem.lattice import LatticeFrame, make_frame
from gmem.membrane_material import StressResult
from gmem.scenarios import (PROTOCOL_KINDS, CurvePoint, DeformationProtocol,
                            run_curve)
from gmem.surface_tensors import (SpectralDecomp, SurfTensor2, Tangent4,
                                  spectral, sqrt_spd)

T = SurfTensor2(1.25, 0.75, 0.125)
A = np.arange(16.0).reshape(2, 2, 2, 2)
V = np.array([[1.0, 0.0, 0.0], [0.5, 1.5, 0.0]])  # tangent vectors

# class, field order, one value per field, defaults of the trailing fields
RECORDS = [
    (SurfTensor2, ("c11", "c22", "c12"), (1.25, 0.75, 0.125), {}),
    (SpectralDecomp, ("Lambda1", "Lambda2", "theta"), (1.21, 0.81, 0.25), {}),
    (Tangent4, ("comp",), (A,), {}),
    (StressResult, ("S", "tau", "sigma", "W"),
     (T, T.scaled(2.0), T.scaled(3.0), 0.5), {}),
    (InvariantState, ("J1", "J2", "J3", "mC", "nC"),
     (1.1, 0.01, 0.001, 0.2, -0.1), {}),
    (LogInvariantState, ("J1E", "J2E", "J3E"), (0.1, 0.002, 0.0001), {}),
    (CurvatureInvariants, tuple(f"J{k}" for k in range(1, 10)),
     (1.1, 0.01, 0.001, 0.3, -0.05, 0.002, 0.4, 0.003, -0.001), {}),
    (LatticeFrame, ("theta_lattice", "m_hat", "n_hat"),
     tuple(make_frame(0.3)), {}),
    (CurvePoint, ("lam", "sigma11", "sigma22", "sigma12", "W"),
     (1.1, 2.0, 1.0, 0.0, 0.3), {}),
    (SurfacePointGeometry,
     ("A_alpha", "a_alpha", "A_cov", "A_contra", "a_cov", "a_contra",
      "b_cov", "b_contra", "gamma", "n", "J", "H", "kappa_gauss", "k1", "k2"),
     (V, 2.0 * V, T, T.scaled(2.0), T.scaled(0.5), T.scaled(4.0),
      T.scaled(-1.0), T.scaled(-3.0), A[:, :, 0], np.array([0.0, 0.0, 1.0]),
      1.0, 0.5, 0.2, 0.7, 0.3), {}),
    (BendingTangents, ("c", "d", "e", "f"), (A, 2 * A, 3 * A, 4 * A), {}),
]
IDS = [r[0].__name__ for r in RECORDS]


def _has_array(values):
    return any(isinstance(v, np.ndarray) for v in values)


def _same(a, b):
    """Fieldwise equality; arrays compare by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b))


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_construction_and_field_order(cls, fields, values, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    rec = cls(*values)
    assert _same(rec, cls(**dict(zip(fields, values))))
    assert [getattr(rec, f) for f in fields] == list(values)
    assert tuple(rec) == values
    if defaults:
        short = cls(*values[:len(fields) - len(defaults)])
        for name, value in defaults.items():
            assert getattr(short, name) == value


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, values, defaults):
    rec = cls(*values)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[0])
    with pytest.raises(AttributeError):
        rec.extra = 1.0


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_repr_and_pickle(cls, fields, values, defaults):
    rec = cls(*values)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(rec) == f"{cls.__name__}({body})"
    assert _same(pickle.loads(pickle.dumps(rec)), rec)
    if not _has_array(values):
        twin = cls(*values)
        assert twin == rec and hash(twin) == hash(rec)
        assert pickle.loads(pickle.dumps(rec)) == rec


def test_surf_tensor_repr_and_tuple_semantics():
    assert repr(T) == "SurfTensor2(c11=1.25, c22=0.75, c12=0.125)"
    # records compare equal to plain tuples of the same values and unpack
    assert T == (1.25, 0.75, 0.125)
    c11, c22, c12 = T
    assert (c11, c22, c12) == (1.25, 0.75, 0.125)
    # an untagged tensor is an array of its three floats
    assert np.asarray(T).dtype == float
    assert np.array_equal(np.asarray(T), [1.25, 0.75, 0.125])
    assert T._replace(c12=0.0) == SurfTensor2(1.25, 0.75, 0.0)


# tuple.__new__ skips the constructor's arity check, so the records built
# that way are checked for type, length and field types here
def _well_formed(rec, cls):
    assert type(rec) is cls and len(rec) == len(cls._fields)


def _float_tensor(t):
    _well_formed(t, SurfTensor2)
    assert all(type(x) is float for x in t)


@pytest.mark.parametrize("c", [SurfTensor2(1.21, 0.81, 0.05),
                               SurfTensor2(1.44, 1.44, 0.0)])
def test_membrane_outputs_are_well_formed(c):
    fr = make_frame(0.3)
    _float_tensor(sqrt_spd(c))
    sd = spectral(c)
    _well_formed(sd, SpectralDecomp)
    assert all(type(x) is float for x in sd)
    stresses, tangents = [], []
    for model in ("metric", "log"):
        stresses.append(getattr(mm, f"stress_{model}")(c, fr, mm.GGA))
        tangents.append(getattr(mm, f"tangent_{model}")(c, fr, mm.GGA))
        pair = getattr(mm, f"stress_tangent_{model}")(c, fr, mm.GGA)
        assert type(pair) is tuple and len(pair) == 2
        stresses.append(pair[0])
        tangents.append(pair[1])
    for r in stresses:
        _well_formed(r, StressResult)
        for t in r[:3]:
            _float_tensor(t)
        assert type(r.W) is float
    for t in tangents:
        _well_formed(t, Tangent4)
        comp = t.comp
        assert comp.dtype == np.float64 and comp.shape == (2, 2, 2, 2)
        assert comp.flags.c_contiguous


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_scenario_records_are_well_formed(monkeypatch, kind):
    """run_curve passes each point's C to the model's stress call as a
    SurfTensor2 of Python floats and returns CurvePoints of floats."""
    fr = make_frame(0.3)
    proto = DeformationProtocol(kind, 0.2, 1.0, 1.2, 5)
    for model in ("metric", "log"):
        call = getattr(mm, f"stress_{model}")
        states = []

        def stress(c, frame, p, call=call):
            states.append(c)
            return call(c, frame, p)

        monkeypatch.setattr(mm, f"stress_{model}", stress)
        points = run_curve(proto, model, mm.GGA, fr)
        assert len(states) == 5
        for c in states:
            _float_tensor(c)
        assert len(points) == 5
        for q in points:
            _well_formed(q, CurvePoint)
            assert all(type(x) is float for x in q)


def test_bending_outputs_are_well_formed():
    """The six symmetric fields of every geometry record, and the stress
    and moment, are SurfTensor2 triples of Python floats."""
    records = [bg.geometry_from_metrics(T, SurfTensor2(1.3, 0.8, -0.2),
                                        SurfTensor2(0.35, -0.15, 0.22)),
               bg.evaluate_geometry(bg.sphere_surface(1.7), (0.5, 1.1),
                                    reference=bg.cylinder_surface(1.2))]
    for g in records:
        _well_formed(g, SurfacePointGeometry)
        for name in ("A_cov", "A_contra", "a_cov", "a_contra", "b_cov",
                     "b_contra"):
            _float_tensor(getattr(g, name))
        assert all(type(getattr(g, name)) is float
                   for name in ("J", "H", "kappa_gauss", "k1", "k2"))
        for t in bg.bending_stress_moment(g, 0.238):
            _float_tensor(t)


def test_curvature_invariants_are_well_formed():
    rec = invariants_C_kappa(SurfTensor2(1.21, 0.81, 0.05),
                             SurfTensor2(0.35, -0.15, 0.22), make_frame(0.3))
    _well_formed(rec, CurvatureInvariants)
    assert all(type(x) is float for x in rec)
