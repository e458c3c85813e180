"""Records against their reference: each `@record` class of the package
behaves as a `@dataclass(frozen=True)` twin built from the same fields and
defaults."""

import dataclasses
from fractions import Fraction

import pytest

from xclab import bounds, matchgen, polytope, sepmeasure, yannakakis
from xclab.errors import InputError
from xclab.exactla import ExactMatrix, simplex
from xclab.record import factory

MODULES = (bounds, matchgen, polytope, sepmeasure, yannakakis, simplex)

_M = ExactMatrix([[1, 0], [0, 2]])
_N = ExactMatrix([[1, 1], [2, 0]])
_R = polytope.Rectangle.of([0], [1])

# Two distinct argument tuples per record class, valid for its checks.
SAMPLES = {
    "MatchingCover": [(4, "s", (_R,), (((0, 1), (2, 3)),)), (6, "s", (), ())],
    "FaceEmbedding": [(3, "host", "face", (0, 2), {((0, 1),): ((0, 1), (2, 5))}),
                      (3, "host", "face", (0,), {})],
    "RatioReport": [(Fraction(3, 2), (1, 0), 5), (Fraction(1), (1, 0), 5)],
    "Polytope": [((_M.rows(), (1, 2)), ((), ()), ((0, 0),), ("a", "b"), (), ("v",)),
                 ((_N.rows(), (1, 2)), (_M.rows(), (3, 4)), ((0, 0),), ("a", "b"), ("e", "f"),
                  ("v",))],
    "SlackMatrix": [(_M, ("a", "b"), ("u", "v")), (_N, ("a", "b"), ("u", "v"))],
    "Rectangle": [(frozenset({0}), frozenset({1, 2})), (frozenset(), frozenset())],
    "XYSystem": [(1, 1, (((1, 1),), (2,))), (1, 1, None, (((1, -1),), (0,)))],
    "ProjectionReport": [(True,), (False, "objective-value", {"trial": 3})],
    "MatchingCutInstance": [(1, 5), (3, 7)],
    "RectangleWReport": [(True, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6), 0),
                         (False, None, None, None, 4)],
    "WeightMatrix": [((b"\x00\x01", b"\x02\x03"), (1, None, 0, 2), 3), ((b"\x00",), (1,), 1)],
    "RectangleValue": [(Fraction(2), _R, True), (Fraction(2), _R, False)],
    "CoverResult": [("optimal", 1, (_R,), 7), ("exceeded", None, (), 200_000)],
    "Certificate": [("rank", 2), ("fooling", 2, ((0, 1), (1, 0)))],
    "BoundConfig": [(), (5, 3, 1, 16, 2, 9)],
    "BoundReport": [(1, 2, (), None), (2, 2, (), None)],
    "LPResult": [("infeasible",), ("optimal", Fraction(5), (Fraction(1), Fraction(4)))],
    "Factorization": [(_M, _N), (_N, _M)],
}


def _record_classes() -> dict:
    return {
        cls.__name__: cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and "_fields" in vars(cls)
    }


def _twin(cls):
    """The dataclass the record replaces: the class's annotated fields and
    body defaults, its __post_init__, frozen."""
    specs = []
    for name in vars(cls)["__annotations__"]:
        if name not in vars(cls):
            specs.append((name, object))
            continue
        default = vars(cls)[name]
        if isinstance(default, factory):
            specs.append((name, object, dataclasses.field(default_factory=default.make)))
        else:
            specs.append((name, object, dataclasses.field(default=default)))
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def _values(obj, names) -> tuple:
    return tuple(getattr(obj, name) for name in names)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def test_every_record_class_has_samples():
    assert set(_record_classes()) == set(SAMPLES)
    assert len(SAMPLES) == 18


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_matches_its_dataclass_twin(name):
    cls = _record_classes()[name]
    twin = _twin(cls)
    names = tuple(field.name for field in dataclasses.fields(twin))
    assert cls._fields == names
    for field in dataclasses.fields(twin):
        if field.default is not dataclasses.MISSING:
            assert getattr(cls, field.name) == field.default

    built = []
    for args in SAMPLES[name]:
        kwargs = dict(zip(names, args))
        rec, ref = cls(*args), twin(*args)
        assert _values(cls(**kwargs), names) == _values(twin(**kwargs), names)
        assert _values(rec, names) == _values(ref, names)
        assert rec == cls(**kwargs) and not rec != cls(**kwargs)
        assert repr(rec) == repr(ref)
        assert _hash_or_error(rec) == _hash_or_error(ref)
        assert rec != ref and ref != rec
        assert rec != _values(rec, names)
        for target in (rec, ref):
            with pytest.raises(AttributeError):
                setattr(target, names[0], None)
            with pytest.raises(AttributeError):
                delattr(target, names[0])
            with pytest.raises(AttributeError):
                target.extra = 1
        built.append((rec, ref))
    (r1, d1), (r2, d2) = built
    assert (r1 == r2) is (d1 == d2) is False

    too_many = SAMPLES[name][0] + (None,) * (len(names) + 1 - len(SAMPLES[name][0]))
    for bad_call in (lambda c: c(*too_many), lambda c: c(**{"no_such_field": 1})):
        for target in (cls, twin):
            with pytest.raises(TypeError):
                bad_call(target)


def test_records_of_different_classes_are_unequal():
    rect = polytope.Rectangle(frozenset(), frozenset())
    assert rect != sepmeasure.WeightMatrix((), (), 1)
    assert simplex.LPResult("optimal") != bounds.Certificate("optimal", 0)


def test_factory_default_is_fresh_per_instance():
    first, second = polytope.ProjectionReport(True), polytope.ProjectionReport(True)
    assert first.detail == {} and second.detail == {}
    assert first.detail is not second.detail


def test_post_init_checks_still_raise_input_error():
    with pytest.raises(InputError, match="cover_limit"):
        bounds.BoundConfig(cover_limit=-1)
    with pytest.raises(InputError, match="row label count"):
        polytope.SlackMatrix(_M, ("a",), ("u", "v"))
    with pytest.raises(InputError, match="nonnegative"):
        yannakakis.Factorization(ExactMatrix([[-1]]), ExactMatrix([[1]]))
