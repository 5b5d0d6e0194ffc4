"""Trajectory rows: a Monte-Carlo round is a `RoundRecord`, a flow sample an `OdeState`."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class RoundRecord(NamedTuple):
    """One Monte-Carlo round; its fields are the trajectory CSV's columns, in order.

    `n`/`n1`/`eps`/`psi` describe the population that played the round (the
    state *before* its adaptation step); xi/Xi1/Xi2/departures are the flows
    the round produced.  A mean return is None when its group is empty.
    """

    round: int
    n: int
    n1: int
    eps: float
    psi: float
    default_frac: float
    xi: int           # net arrivals joining the risk-free group
    Xi1: int          # switches into the risk-free group
    Xi2: int          # switches out of it
    departures: int
    mean_r1: float | None
    mean_r2: float | None


class OdeState(NamedTuple):
    """The mean-field flow's state at flow time `t`."""

    eps: float
    psi: float
    t: float
    pinned: bool = False  # frozen at an interior threshold (mixed limit)


@dataclass
class Trajectory:
    """One run's rows, all of one kind, and its simulation seed (None for a flow)."""

    records: list[RoundRecord] | list[OdeState]
    seed: int | None = None
