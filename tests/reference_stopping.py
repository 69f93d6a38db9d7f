"""The delay-table check that `delayedmarkets.probability.validate_stopping_process`
replaced, kept unchanged as the reference that `test_probability.py`
compares it against: it tests the stopping property at every grid time
0..top, not only at the row's values, and the two must report the same
problems in the same words.
"""

from __future__ import annotations

from delayedmarkets.probability import StoppingProcess


def reference_validate_stopping_process(sp: StoppingProcess, mode: str) -> list[str]:
    if mode not in ("information", "execution"):
        raise ValueError(f"unknown mode {mode!r}; use 'information' or 'execution'")
    problems: list[str] = []
    states = sp.states
    idx = {st: i for i, st in enumerate(states)}
    top = len(sp.info) - 1
    for t, row in enumerate(sp.values):
        for st, v in zip(states, row):
            if mode == "information" and not 0 <= v <= t:
                problems.append(f"information bound violated: value {v} at (t={t}, state={st}) outside [0, {t}]")
            if mode == "execution" and not t <= v <= top:
                problems.append(f"execution bound violated: value {v} at (t={t}, state={st}) outside [{t}, {top}]")
        for s in range(len(sp.info)):
            for atom in sp.info.at(s).atoms:
                hits = [row[idx[st]] <= s for st in atom]
                if any(hits) and not all(hits):
                    problems.append(
                        f"stopping property violated at t={t}: {{value <= {s}}} cuts atom {atom} of the information"
                    )
                    break
            else:
                continue
            break
    for t in range(len(sp.values) - 1):
        for st, a, b in zip(states, sp.values[t], sp.values[t + 1]):
            if a > b:
                problems.append(f"path-wise monotonicity violated at state {st}: value({t})={a} > value({t + 1})={b}")
    return problems
