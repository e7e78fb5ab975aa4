"""Check declarations, parameter points and the draw table that fills them.

A :class:`CheckDef` is one check: what it draws, how it is evaluated, how it
is described.  Each evaluator declares its own with :func:`check`.

A :class:`ParamPoint` is one sampled assignment of every input a check needs:
plain rational parameters, square roots (kappa^2 = q and friends, so both
sides of a root-bearing identity use the same root), integer shifts, row
index tuples, variable lists, and raw matrix entries.  A check names its
draws once, in RNG order; :func:`draw` turns the names into values with
numerators in [-9, 9] \\ {0} and denominators in [1, 9], each one of the
162 canonical scalars of a table built once at import, so a draw reads
random bits and an index and reduces nothing.  Every rational draw, single
or sized, runs the one loop of :func:`draw_rationals`.  The sized draws
hold :data:`CAPACITY` values (a square matrix of that order), which is also
every reading check's ``max_size``.  :meth:`ParamPoint.describe` reads a
table scalar's text from a second table built beside the first, so a drawn
entry is not rendered again for every result.  The rejection loop that keeps
only non-degenerate points lives in :mod:`.runner`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, fields
from typing import Callable

from ..gaussian import ONE, GaussianRational, _reduced

_NUMERATORS = [k for k in range(-9, 10) if k != 0]

# The 18 x 9 canonical scalars _NUMERATORS[k] / (d + 1) that draw_rationals
# returns, at [k][d]; scalars are immutable, so every draw shares them.
_RATIONALS = tuple(tuple(_reduced(num, den) for den in range(1, 10)) for num in _NUMERATORS)

# The canonical text of each table scalar, keyed by identity: the table lives
# as long as the module, so no other object can carry one of these ids.
_TEXTS = {id(z): str(z) for row in _RATIONALS for z in row}

# The sized draws and their capacity, the largest n a check reading one can run
# at: checks take the first n of a tuple, or the leading n x n block of the matrix.
CAPACITY = {"k_tuple": 12, "x_list": 6, "matrix_entries": 6}

# What an evaluator returns: labeled (lhs, rhs) pairs that must agree exactly.
Comparison = tuple[str, GaussianRational, GaussianRational]


@dataclass(frozen=True)
class ParamPoint:
    """One sampled parameter assignment; only the slots a check uses are set.

    The slots after ``seed`` and ``trial`` appear in :meth:`describe` in
    declaration order.
    """

    seed: int = 0
    trial: int = 0
    kappa: GaussianRational | None = None
    alpha: GaussianRational | None = None
    beta: GaussianRational | None = None
    gamma: GaussianRational | None = None
    a: GaussianRational | None = None
    b: GaussianRational | None = None
    c: GaussianRational | None = None
    q: GaussianRational | None = None
    d: GaussianRational | None = None
    x: GaussianRational | None = None
    s_half: GaussianRational | None = None
    t_half: GaussianRational | None = None
    alpha_c: GaussianRational | None = None
    beta_c: GaussianRational | None = None
    gamma_c: GaussianRational | None = None
    r: int | None = None
    k_tuple: tuple[int, ...] | None = None
    x_list: tuple[GaussianRational, ...] | None = None
    extras: tuple[GaussianRational, ...] | None = None
    matrix_entries: tuple[GaussianRational, ...] | None = None

    def describe(self) -> dict:
        """JSON-ready view of the set slots, scalars in canonical form.

        A tuple holds ints only or scalars only.  A table scalar's text is
        read from the table; any other scalar (a square, a hand-built value)
        is rendered with ``str``.
        """
        out: dict = {}
        for name in _DESCRIBED:
            value = getattr(self, name)
            if value is None:
                continue
            if type(value) is not tuple:
                out[name] = value if isinstance(value, int) else _TEXTS.get(id(value)) or str(value)
            elif value and isinstance(value[0], int):
                out[name] = list(value)
            else:
                try:
                    out[name] = list(map(_TEXTS.__getitem__, map(id, value)))
                except KeyError:
                    out[name] = list(map(str, value))
        return out


# The slots ParamPoint.describe reports, in declaration order.
_DESCRIBED = tuple(slot.name for slot in fields(ParamPoint)[2:])


def draw_rationals(rng: random.Random, count: int) -> tuple[GaussianRational, ...]:
    """``count`` nonzero rationals with numerator in [-9,9] and denominator in [1,9].

    Each numerator is rng.choice(_NUMERATORS) and each denominator
    rng.randint(1, 9), both read from ``getrandbits`` by the rule of
    ``Random._randbelow``: a value below n takes n.bit_length() bits, drawn
    again while it is >= n (18 numerators: 5 bits; 9 denominators: 4 bits).
    The stream, and so every point, is the one choice and randint give,
    without their call chain, and each value is read from a table of the 162
    scalars instead of being reduced on every draw.
    """
    getrandbits = rng.getrandbits
    values = []
    append = values.append
    for _ in range(count):
        k = getrandbits(5)
        while k >= 18:
            k = getrandbits(5)
        d = getrandbits(4)
        while d >= 9:
            d = getrandbits(4)
        append(_RATIONALS[k][d])
    return tuple(values)


def draw_rational(rng: random.Random) -> GaussianRational:
    """One nonzero rational, drawn as :func:`draw_rationals` draws each."""
    return draw_rationals(rng, 1)[0]


def draw_unit_free(rng: random.Random) -> GaussianRational:
    """A nonzero rational that is neither 1 nor -1 (valid q or kappa)."""
    while True:
        v = draw_rational(rng)
        if v != ONE and v != -ONE:
            return v


def draw_r(rng: random.Random) -> int:
    return rng.randint(-2, 3)


def draw_k_tuple(rng: random.Random) -> tuple[int, ...]:
    """A permutation of the row indices 1..capacity; checks slice the first n."""
    size = CAPACITY["k_tuple"]
    return tuple(rng.sample(range(1, size + 1), size))


def draw_x_list(rng: random.Random) -> tuple[GaussianRational, ...]:
    """Distinct rationals, as many as the capacity."""
    size = CAPACITY["x_list"]
    while True:
        values = draw_rationals(rng, size)
        if len(set(values)) == size:
            return values


def draw_matrix(rng: random.Random) -> tuple[GaussianRational, ...]:
    """The row-major entries of a square rational matrix of the capacity's order."""
    size = CAPACITY["matrix_entries"]
    return draw_rationals(rng, size * size)


def draw_roots(rng: random.Random) -> dict:
    """Roots kappa, alpha, beta, gamma, with q, a, b, c set to their squares."""
    kappa = draw_unit_free(rng)
    alpha, beta, gamma = draw_rationals(rng, 3)
    return {
        "kappa": kappa,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "a": alpha * alpha,
        "b": beta * beta,
        "c": gamma * gamma,
        "q": kappa * kappa,
    }


# The draw table: how a named slot is drawn.  Any other slot name is one
# plain rational; ``extras:N`` is N of them.
_DRAWS = {
    "q": draw_unit_free,
    "kappa": draw_unit_free,
    "r": draw_r,
    "k_tuple": draw_k_tuple,
    "x_list": draw_x_list,
    "matrix_entries": draw_matrix,
}


def draw(names: tuple[str, ...], rng: random.Random) -> dict:
    """Slot values for ``names``, drawn from ``rng`` in the order named.

    ``roots`` draws kappa, alpha, beta, gamma and sets q, a, b, c to their
    squares; ``extras:N`` fills ``extras`` with N rationals.
    """
    out: dict = {}
    for name in names:
        if name == "roots":
            out.update(draw_roots(rng))
        elif name.startswith("extras:"):
            count = int(name.partition(":")[2])
            out["extras"] = draw_rationals(rng, count)
        else:
            out[name] = _DRAWS.get(name, draw_rational)(rng)
    return out


@dataclass(frozen=True)
class CheckDef:
    """One check: what to draw, how to evaluate, how to describe it.

    ``draws`` names the sampled slots once, in RNG order (see :func:`draw`);
    ``sample`` defaults to drawing them.  ``max_size`` is not declared but
    read from :data:`CAPACITY` for the sized draws (None when there are none).
    """

    id: str
    summary: str
    size_role: str
    draws: tuple[str, ...]
    default_sizes: tuple[int, ...]
    evaluate: Callable[[ParamPoint, int], list[Comparison]]
    mode: str = "identity"
    min_size: int = 1
    max_size: int | None = field(init=False)
    sample: Callable[[random.Random], dict] | None = None

    def __post_init__(self):
        caps = [CAPACITY[name] for name in self.draws if name in CAPACITY]
        object.__setattr__(self, "max_size", min(caps, default=None))
        if self.sample is None:
            object.__setattr__(self, "sample", functools.partial(draw, self.draws))


def check(**attrs) -> Callable[[Callable], CheckDef]:
    """Declare the decorated evaluator a check whose id is the evaluator's name.

    ``attrs`` are the other :class:`CheckDef` fields.
    """

    def declare(evaluate: Callable) -> CheckDef:
        return CheckDef(id=evaluate.__name__, evaluate=evaluate, **attrs)

    return declare
