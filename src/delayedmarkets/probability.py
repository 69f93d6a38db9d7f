"""Finite filtered probability spaces.

Sigma-fields on a finite state set are represented by their atom
partitions, so every measurability question reduces to a union-of-atoms
test and every conditional expectation to exact weighted block averages.
A partition is built from its labels in one pass that numbers them and
groups the states. Filtrations are refining sequences of partitions over
an integer time grid; stopping-time processes (the raw material for
market delays) are per-time tables of grid values validated against a
delay-information filtration.

Everything is immutable and exact: state probabilities, conditional
expectations and stopped sigma-fields are computed in rational
arithmetic with no tolerances.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import le
from typing import Iterable, Mapping, Sequence

from .frozen import Frozen
from .rationals import Rational, int_multiple


class FiniteSpace(Frozen):
    """Finite state set with strictly positive probabilities and a time grid.

    The trading grid is 0..horizon; prices may extend to extended_horizon
    to make room for order executions that land after maturity.
    """

    _fields = ("states", "probability", "horizon", "extended_horizon")

    def __init__(self, states: Sequence[str], probability: Mapping[str, Rational], horizon: int,
                 extended_horizon: int):
        if len(states) == 0:
            raise ValueError("state set is empty")
        state_index = dict(zip(states, range(len(states))))  # state -> position
        if len(state_index) != len(states):
            raise ValueError("duplicate state names")
        horizon, extended_horizon = grid_values((horizon, extended_horizon))
        if horizon < 1:
            raise ValueError("grid horizon must be at least 1")
        if extended_horizon < horizon:
            raise ValueError("extended horizon must be >= horizon")
        if set(probability) != set(states):
            raise ValueError("probability keys do not match the state set")
        weights = [probability[s] for s in states]
        ints, scale = int_multiple(weights)
        if min(ints) <= 0:
            raise ValueError("all state probabilities must be strictly positive")
        if sum(ints) != scale:
            raise ValueError("probabilities must sum to exactly 1")
        self.__dict__.update(states=tuple(states), probability=dict(zip(states, weights)), horizon=horizon,
                             extended_horizon=extended_horizon, state_index=state_index)

    @classmethod
    def uniform(cls, states: Sequence[str], horizon: int, extended_horizon: int) -> "FiniteSpace":
        n = len(states)
        prob = {s: Rational(1, n) for s in states}
        return cls(tuple(states), prob, horizon, extended_horizon)


class Partition(Frozen):
    """A sigma-field on a finite state set, given by its canonical labels.

    labels[i] is the number of the atom holding the i-th state, and atoms
    are numbered 0, 1, ... in the order their first state appears; that
    vector is the only thing a Partition is compared by, so equal
    sigma-fields compare (and serialize) identically. The constructor
    takes any hashable labels, one per state, and renumbers them into this
    form in the same pass that groups the states; each atom lists its
    states in universe order. of reads a collection of atoms.
    """

    _fields = ("states", "labels")

    def __init__(self, states: Sequence[str], labels: Sequence):
        states = tuple(states)
        if len(set(states)) != len(states):
            raise ValueError("duplicate state names")
        if len(labels) != len(states):
            raise ValueError("one label per state required")
        # one pass numbers the labels and collects each atom's states and positions
        number: dict = {}
        canonical: list[int] = []
        atoms: list[list[str]] = []
        positions: list[list[int]] = []
        for i, s, label in zip(range(len(states)), states, labels):
            k = number.get(label)
            if k is None:
                k = number[label] = len(atoms)
                atoms.append([s])
                positions.append([i])
            else:
                atoms[k].append(s)
                positions[k].append(i)
            canonical.append(k)
        # atom_positions: each atom as the universe-order positions of its states, increasing
        self.__dict__.update(states=states, labels=tuple(canonical), atoms=tuple(map(tuple, atoms)),
                             atom_positions=tuple(map(tuple, positions)))

    @classmethod
    def of(cls, states: Sequence[str], atoms: Iterable[Iterable[str]]) -> "Partition":
        """The partition with these atoms (sets, lists, any order)."""
        states = tuple(states)
        universe = set(states)
        atoms = [tuple(atom) for atom in atoms]
        for s in chain.from_iterable(atoms):
            if s not in universe:
                raise ValueError(f"state {s!r} is not in the state set")
        if not all(atoms):
            raise ValueError("empty atom")
        number: dict[str, int] = {}
        for i, atom in enumerate(atoms):
            for s in atom:
                if s in number:
                    raise ValueError(f"state {s!r} appears in two atoms")
                number[s] = i
        if number.keys() != universe:
            raise ValueError("atoms do not cover the state set")
        return cls(states, [number[s] for s in states])

    @classmethod
    def trivial(cls, states: Sequence[str]) -> "Partition":
        return cls(states, (0,) * len(states))


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every atom of `fine` sits inside an atom of `coarse`.

    Orientation: refines(f, c) holds exactly when the sigma-field of c is
    contained in that of f: each fine atom meets exactly one coarse atom,
    so the (fine, coarse) label pairs are as many as the fine atoms.
    """
    if fine is coarse:
        return True
    if fine.states is not coarse.states and fine.states != coarse.states:
        raise ValueError("partitions over different state sets")
    if len(coarse.atoms) == 1 or len(fine.atoms) == len(fine.labels):
        return True  # a trivial coarse or a discrete fine partition
    return len(set(zip(fine.labels, coarse.labels))) == len(fine.atoms)


def _common_states(parts: Sequence[Partition], name: str) -> tuple[str, ...]:
    if not parts:
        raise ValueError(f"{name} of an empty list")
    states = parts[0].states
    if any(p.states != states for p in parts[1:]):
        raise ValueError("partitions over different state sets")
    return states


def sigma_join(parts: Sequence[Partition]) -> Partition:
    """Coarsest common refinement: the sigma-field generated by the union.

    Atoms are the nonempty intersections of one atom from each input. An
    input that refines every other input is that join already and is
    returned as it is.
    """
    states = _common_states(parts, "sigma_join")
    finest = max(parts, key=lambda p: len(p.atoms))
    if all(refines(finest, p) for p in parts):
        return finest
    return Partition(states, list(zip(*[p.labels for p in parts])))


def join_each(seqs: Sequence[Sequence[Partition]]) -> tuple[Partition, ...]:
    """The sigma_join of the sequences' partitions at each position; one
    sequence comes back as its own partitions, since each refines itself."""
    return tuple(map(sigma_join, zip(*seqs, strict=True)))


def sigma_meet(parts: Sequence[Partition]) -> Partition:
    """Finest partition coarser than every input: the intersection sigma-field.

    Atoms are the connected components when every input atom is read as a
    hyperedge linking its states. An input that every other input refines
    is that meet already and is returned as it is.
    """
    states = _common_states(parts, "sigma_meet")
    coarsest = min(parts, key=lambda p: len(p.atoms))
    if all(refines(p, coarsest) for p in parts):
        return coarsest
    parent = {s: s for s in states}

    def find(s: str) -> str:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for p in parts:
        for atom in p.atoms:
            root = find(atom[0])
            for s in atom[1:]:
                parent[find(s)] = root
    return Partition(states, [find(s) for s in states])


def conditional_expectation(
    x: Sequence[Rational],
    sigma: Partition,
    q: Sequence[Rational],
) -> tuple[Rational, ...]:
    """Exact conditional expectation of x given sigma under the weights q.

    x and q are state-indexed in universe order; q must be strictly
    positive. The result is constant on each atom, equal to the q-weighted
    average of x over that atom.
    """
    n = len(sigma.states)
    if len(x) != n or len(q) != n:
        raise ValueError("vector length does not match the state set")
    if any(w <= 0 for w in q):
        raise ValueError("weights must be strictly positive")
    out: list[Rational] = [None] * n  # type: ignore[list-item]
    for atom in sigma.atom_positions:
        avg = sum(q[k] * x[k] for k in atom) / sum(q[k] for k in atom)
        for k in atom:
            out[k] = avg
    return tuple(out)


class Filtration(Frozen):
    """A refining sequence of partitions indexed by grid times 0..len-1."""

    _fields = ("partitions",)

    def __init__(self, partitions: tuple[Partition, ...]):
        if not partitions:
            raise ValueError("empty filtration")
        states = partitions[0].states
        for t, p in enumerate(partitions):
            if p.states != states:
                raise ValueError("filtration mixes state sets")
            if t > 0 and not refines(p, partitions[t - 1]):
                raise ValueError(f"partition at time {t} does not refine time {t - 1}")
        self.__dict__.update(partitions=partitions)

    @classmethod
    def constant(cls, partition: Partition, length: int) -> "Filtration":
        return cls(tuple(partition for _ in range(length)))

    @property
    def states(self) -> tuple[str, ...]:
        return self.partitions[0].states

    def __len__(self) -> int:
        return len(self.partitions)

    def at(self, t: int) -> Partition:
        if not 0 <= t < len(self.partitions):
            raise IndexError(f"time {t} outside filtration grid 0..{len(self.partitions) - 1}")
        return self.partitions[t]

    def restrict(self, length: int) -> "Filtration":
        """The first length partitions; the filtration itself (it is frozen)
        when that is all of them."""
        if length > len(self.partitions):
            raise ValueError("cannot restrict beyond current length")
        if length == len(self.partitions):
            return self
        return Filtration(self.partitions[:length])

    def extend_to(self, length: int) -> "Filtration":
        """Extend past the grid by repeating the final partition."""
        if length <= len(self.partitions):
            return self.restrict(length)
        pad = (self.partitions[-1],) * (length - len(self.partitions))
        return Filtration(self.partitions + pad)


def is_subfiltration(coarse: Filtration, fine: Filtration) -> bool:
    """True iff coarse.at(t) is coarser than fine.at(t) for every shared t.

    The comparison runs over the shorter of the two grids.
    """
    return all(map(refines, fine.partitions, coarse.partitions))


def grid_values(values: Iterable[int]) -> tuple[int, ...]:
    """values as a tuple of grid times. int() would truncate a float and
    read a bool as 0 or 1, so a value that is not exactly an int raises."""
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        v = next(v for v in values if type(v) is not int)
        raise TypeError(f"grid value {v!r} is not an int")
    return values


class StoppingProcess(Frozen):
    """A time-indexed table of grid-valued stopping times with its information.

    values[t][i] is the stopped grid time for order time t and state i (in
    the universe order of `info`). The constructor checks the table's shape
    and that every value is an int; validity (stopping property, bounds,
    path-wise monotonicity) is checked by validate_stopping_process, so
    diagnostic reports can be produced for bad tables.
    """

    _fields = ("values", "info")

    def __init__(self, values: Sequence[Sequence[int]], info: Filtration):
        n = len(info.states)
        if not values:
            raise ValueError("empty value table")
        for row in values:
            if len(row) != n:
                raise ValueError("value row length differs from state count")
        self.__dict__.update(values=tuple(map(grid_values, values)), info=info)

    @classmethod
    def deterministic(cls, schedule: Sequence[int], info: Filtration) -> "StoppingProcess":
        n = len(info.states)
        return cls(tuple((v,) * n for v in schedule), info)

    @property
    def states(self) -> tuple[str, ...]:
        return self.info.states

    def grid_length(self) -> int:
        return len(self.values)


def stopped_sigma_field(f: Filtration, tau: Sequence[int]) -> Partition:
    """The sigma-field of the tau-past, as a partition.

    tau must have values inside f's grid, and pass the stopping test that
    validate_stopping_process applies to a delay table's rows. The
    atoms are the atoms A of f.at(s) with A contained in {tau = s}; the
    result F satisfies the definitional test that F ∩ {tau <= u} is
    measurable at every u. A state's atom is labelled by its stopped time
    and its atom at that time; a constant tau = s gives F_s itself.
    """
    parts = f.partitions
    states = parts[0].states
    if len(tau) != len(states):
        raise ValueError("stopping-time vector length differs from state count")
    if tau and not (0 <= min(tau) and max(tau) < len(parts)):
        v = next(v for v in tau if not 0 <= v < len(parts))
        raise ValueError(f"stopped time {v} escapes the filtration grid")
    if len(set(tau)) == 1:
        return parts[tau[0]]
    if _first_cut(parts, tau) is not None:
        raise ValueError("tau is not a stopping time for this filtration")
    return Partition(states, list(zip(tau, [parts[v].labels[i] for i, v in enumerate(tau)])))


def _first_cut(parts: Sequence[Partition], row: Sequence[int]) -> int | None:
    """The first grid time s at which {value <= s} cuts an atom of parts[s],
    or None: the one stopping test of a row of grid values. Values below 0
    enter at s = 0, and values past the top never enter.

    {value <= s} only changes at the row's values and parts[s] only refines
    as s grows, so the first such s is one of those values. It holds every
    state from the row's largest value on, and a discrete partition has no
    atom to cut; an atom it cuts shows as one label paired with both answers.
    """
    values = set(row)
    if len(values) < 2:
        return None
    high, top = max(values), len(parts) - 1
    if min(values) < 0 or high > top:
        values = {max(v, 0) for v in values if v <= top}
    for s in sorted(values):
        if s >= high:
            return None
        p = parts[s]
        if len(p.atoms) < len(row) and len(set(zip(p.labels, map(le, row, repeat(s))))) != len(p.atoms):
            return s
    return None


def stopped_fields(f: Filtration, rows: Iterable[Sequence[int]]) -> tuple[Partition, ...]:
    """stopped_sigma_field(f, row) for each row: a delay table's rows give
    the sigma-fields of its stopped pasts, one per order time."""
    return tuple(stopped_sigma_field(f, row) for row in rows)


_INFORMATION = "information"
_EXECUTION = "execution"


def validate_stopping_process(sp: StoppingProcess, mode: str) -> list[str]:
    """Diagnostic report for a delay table; empty list means valid.

    Checks, per order time t: the stopping property of sp.values[t] against
    sp.info, the bound for the mode (information: 0 <= value <= t;
    execution: t <= value <= top of the info grid), and path-wise
    monotonicity across t. Each check runs on builtins first and walks
    the row only to word a violation; the stopping property is the test
    stopped_sigma_field also applies.
    """
    if mode not in (_INFORMATION, _EXECUTION):
        raise ValueError(f"unknown mode {mode!r}; use 'information' or 'execution'")
    problems: list[str] = []
    states = sp.states
    parts = sp.info.partitions
    top = len(parts) - 1
    for t, row in enumerate(sp.values):
        lo, hi = (0, t) if mode == _INFORMATION else (t, top)
        low, high = (min(row), max(row)) if row else (lo, hi)
        if not (lo <= low and high <= hi):
            for st, v in zip(states, row):
                if not lo <= v <= hi:
                    problems.append(f"{mode} bound violated: value {v} at (t={t}, state={st}) outside [{lo}, {hi}]")
        s = _first_cut(parts, row)
        if s is not None:
            info = parts[s]
            atom = next(a for a, positions in zip(info.atoms, info.atom_positions)
                        if len({row[k] <= s for k in positions}) == 2)
            problems.append(
                f"stopping property violated at t={t}: {{value <= {s}}} cuts atom {atom} of the information"
            )
    for t, (now, after) in enumerate(zip(sp.values, sp.values[1:])):
        if not all(map(le, now, after)):
            for st, a, b in zip(states, now, after):
                if a > b:
                    problems.append(f"path-wise monotonicity violated at state {st}: value({t})={a} > value({t + 1})={b}")
    return problems
