"""Hierarchical modules (the ``sc_module`` analogue)."""

from __future__ import annotations

from typing import Optional, Union

from repro.kernel.simulator import Simulator


class Module:
    """A named, hierarchical building block.

    A module is created either directly under a :class:`Simulator` or under a
    parent module, from which it inherits the simulator and the prefix of its
    dotted :attr:`name`.
    """

    def __init__(self, parent: Union[Simulator, "Module"], name: str):
        if isinstance(parent, Module):
            self.parent: Optional[Module] = parent
            self.sim: Simulator = parent.sim
        elif isinstance(parent, Simulator):
            self.parent = None
            self.sim = parent
        else:
            raise TypeError(
                "Module parent must be a Simulator or another Module, got "
                f"{type(parent).__name__}"
            )
        self.basename = name

    @property
    def name(self) -> str:
        """Fully qualified, dot-separated hierarchical name."""
        if self.parent is None:
            return self.basename
        return f"{self.parent.name}.{self.basename}"

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
