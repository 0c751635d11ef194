"""Channel base class.

A channel is a module that implements one or more :class:`Interface`
classes; models hold a reference to it and call its interface methods.
"""

from repro.kernel.module import Module


class Channel(Module):
    """A hierarchical channel: a module that also implements interfaces."""
