"""The two-step partition build that `Partition.from_labels` replaced,
kept as the reference that `test_probability.py` compares the one-pass
build against: renumber the labels in order of first appearance, then
check the numbering and group the states by it, as the validating
constructor once did for every partition.
"""

from __future__ import annotations

from typing import Sequence


def reference_from_labels(states: Sequence[str], labels: Sequence) -> tuple:
    """(states, labels, atoms, atom_positions) of the partition that groups
    states sharing a label, or the ValueError the old build raised."""
    number: dict = {}
    return _reference_build(tuple(states), tuple([number.setdefault(lab, len(number)) for lab in labels]))


def _reference_build(states: tuple[str, ...], labels: tuple[int, ...]) -> tuple:
    if len(set(states)) != len(states):
        raise ValueError("duplicate state names")
    if len(labels) != len(states):
        raise ValueError("one label per state required")
    first = dict.fromkeys(labels)
    if list(first) != list(range(len(first))):
        raise ValueError("labels must be a tuple of ints numbering the atoms in order of first appearance")
    atoms: list[list[str]] = [[] for _ in first]
    positions: list[list[int]] = [[] for _ in first]
    for i, (s, label) in enumerate(zip(states, labels)):
        atoms[label].append(s)
        positions[label].append(i)
    return states, labels, tuple(map(tuple, atoms)), tuple(map(tuple, positions))
