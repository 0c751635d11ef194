"""Exception hierarchy of the simulation kernel."""


class KernelError(Exception):
    """Base class for all kernel-level errors."""


class SchedulingError(KernelError):
    """Raised when an event or process is scheduled inconsistently
    (for example a negative delay)."""


class ProcessKilled(KernelError):
    """Raised inside a process generator when it is killed explicitly."""


class DeadlockError(KernelError):
    """Raised by :meth:`repro.kernel.simulator.Simulator.run` when
    ``run(until=...)`` is asked to make progress but no event is pending."""
