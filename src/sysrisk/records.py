"""Run records shared by the Monte-Carlo driver and the ODE integrators."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RoundRecord:
    """One row of a trajectory.

    Monte-Carlo rounds fill the integer columns; ODE samples leave them None
    and carry the flow clock in `t`.  `eps`/`psi` describe the population that
    played the round (i.e. the state *before* the round's adaptation step);
    the flow fields xi/Xi1/Xi2/departures are what happened during the round.
    """

    eps: float
    psi: float
    round: int | None = None
    n: int | None = None
    n1: int | None = None
    default_frac: float | None = None
    xi: int | None = None           # net arrivals joining the risk-free group
    Xi1: int | None = None          # switches into the risk-free group
    Xi2: int | None = None          # switches out of it
    departures: int | None = None
    mean_r1: float | None = None
    mean_r2: float | None = None
    t: float | None = None


@dataclass
class Trajectory:
    records: list[RoundRecord] = field(default_factory=list)
    seed: int | None = None
    label: str = ""
