"""Smart home scheduling: appliance tasks, DP scheduler and the community game."""

from repro.scheduling.appliance import (
    ApplianceSchedule,
    ApplianceTask,
    InfeasibleTaskError,
)
from repro.scheduling.customer import Customer, CustomerState
from repro.scheduling.dp import schedule_appliance, schedule_appliance_table
from repro.scheduling.game import (
    Community,
    GameResult,
    SchedulingGame,
)
from repro.scheduling.diagnostics import (
    NashGapReport,
    cost_breakdown,
    equilibrium_quality,
    nash_gap,
)

__all__ = [
    "ApplianceSchedule",
    "ApplianceTask",
    "Community",
    "Customer",
    "CustomerState",
    "GameResult",
    "InfeasibleTaskError",
    "NashGapReport",
    "SchedulingGame",
    "cost_breakdown",
    "equilibrium_quality",
    "nash_gap",
    "schedule_appliance",
    "schedule_appliance_table",
]
