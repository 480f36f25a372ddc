"""ADC bridge: the register window through which software observes the analog part.

In the paper's smart-system architecture (Figure 1) only a subset of the
analog output signals is observed by the digital hardware and the software.
This peripheral is that observation point: whatever engine simulates the
analog component (generated C++/Python model, SystemC-DE/TDF wrapper, ELN
solver or the Verilog-AMS co-simulation bridge) publishes its output sample
here, and the firmware reads it as a signed millivolt value over the APB bus.
"""

from __future__ import annotations

from typing import Callable

from .apb import ApbPeripheral

#: Register offsets.
DATA = 0x00
STATUS = 0x04
SAMPLE_COUNT = 0x08
SCALE = 0x0C

#: STATUS bits.
STATUS_VALID = 0x1


class AdcBridge(ApbPeripheral):
    """Latches analog output samples and exposes them as millivolt registers."""

    def __init__(
        self,
        name: str = "adc0",
        millivolts_per_unit: float = 1.0,
        record: bool = False,
    ) -> None:
        self.name = name
        self.millivolts_per_unit = millivolts_per_unit
        self._raw_value = 0.0
        self._valid = False
        self.sample_count = 0
        self.read_count = 0
        #: Every pushed sample in arrival order when ``record`` is set (the
        #: platform sweep layer uses this to compare analog styles), else None.
        self.history: list[float] | None = [] if record else None
        #: Called before every register access; a pull-coupled analog model
        #: uses it to publish the samples due by the access (None: no hook).
        self.before_access: Callable[[], None] | None = None

    # -- analog side -----------------------------------------------------------------------
    def push_sample(self, value: float) -> None:
        """Publish a new analog output sample (called by the analog wrapper)."""
        self._raw_value = float(value)
        self._valid = True
        self.sample_count += 1
        if self.history is not None:
            self.history.append(self._raw_value)

    def push_samples(self, values: list) -> None:
        """Publish consecutive samples in arrival order (``push_sample`` each)."""
        if not values:
            return
        values = list(map(float, values))
        self._raw_value = values[-1]
        self._valid = True
        self.sample_count += len(values)
        if self.history is not None:
            self.history.extend(values)

    @property
    def last_sample(self) -> float:
        """The most recent analog value, in volts."""
        return self._raw_value

    # -- register interface -----------------------------------------------------------------
    def read_register(self, offset: int) -> int:
        if self.before_access is not None:
            self.before_access()
        if offset == DATA:
            self.read_count += 1
            millivolts = int(round(self._raw_value * 1000.0 / self.millivolts_per_unit))
            return millivolts & 0xFFFFFFFF
        if offset == STATUS:
            return STATUS_VALID if self._valid else 0
        if offset == SAMPLE_COUNT:
            return self.sample_count & 0xFFFFFFFF
        if offset == SCALE:
            return int(self.millivolts_per_unit * 1000.0) & 0xFFFFFFFF
        return 0

    def write_register(self, offset: int, value: int) -> None:
        if self.before_access is not None:
            self.before_access()
        if offset == SCALE:
            self.millivolts_per_unit = max(value, 1) / 1000.0
