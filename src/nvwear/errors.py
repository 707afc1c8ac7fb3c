"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid configuration: cache geometry, policy thresholds, or workload spec.
    ``field``, if given, names the dataclass field at fault and leads the message."""

    def __init__(self, reason, field=None):
        super().__init__(f"{field} {reason}" if field else reason)
        self.field, self.reason = field, reason


class TraceFormatError(ValueError):
    """A trace file line that does not match the expected format."""
