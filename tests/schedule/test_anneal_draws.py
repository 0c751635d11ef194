"""Differential test of the annealer's inlined random draws.

``local_search_schedule`` draws from ``random.Random(seed)`` without calling
``randrange`` or ``sample``: it runs, inline, the loop those calls run
(``_randbelow_with_getrandbits``, and ``sample``'s pool method up to 21
items, its set method above).  Its schedules stay bitwise those of the
stdlib calls only while the inlined loops return the same values *and*
consume the same ``getrandbits`` stream.  The functions below are the
scheduler's loops, verbatim; :func:`draw_mismatches` replays them and the
stdlib calls on two generators seeded alike, draws a ``random()`` from both
after every draw, and counts every value or state that differs.

The core is stdlib-only, so it also runs under a bare interpreter:

    python tests/schedule/test_anneal_draws.py
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, Tuple

#: The largest population ``random.Random.sample`` draws two items from by
#: its pool method (``setsize = 21`` for ``k <= 5``).
POOL_LIMIT = 21


def inline_below(getrandbits, n: int) -> int:
    """``randrange(n)`` as the scheduler draws it."""
    bits = n.bit_length()
    while (r := getrandbits(bits)) >= n:
        pass
    return r


def inline_two_distinct(getrandbits, count: int) -> Tuple[int, int]:
    """``sample(range(count), 2)`` as the scheduler draws it."""
    bits = count.bit_length()
    while (source := getrandbits(bits)) >= count:
        pass
    if count <= 21:
        bits = (count - 1).bit_length()
        while (target := getrandbits(bits)) >= count - 1:
            pass
        if target == source:
            target = count - 1
    else:
        while (target := getrandbits(bits)) >= count or target == source:
            pass
    return source, target


def draw_mismatches(seeds: Iterable[int], draws: int,
                    sizes: Sequence[int] = tuple(range(1, 41))) -> int:
    """Disagreements between the inlined draws and the stdlib calls.

    Per seed, *draws* draws of a size picked from *sizes* (``randrange`` of
    it, or ``sample`` of two from it when it is above 1), each followed by a
    ``random()`` on both generators, then one comparison of their states.
    """
    mismatches = 0
    for seed in seeds:
        stdlib, inline = random.Random(seed), random.Random(seed)
        picker = random.Random(f"sizes:{seed}")
        for _ in range(draws):
            n = picker.choice(sizes)
            if n > 1 and picker.random() < 0.5:
                mismatches += (stdlib.sample(range(n), 2)
                               != list(inline_two_distinct(inline.getrandbits,
                                                           n)))
            else:
                mismatches += (stdlib.randrange(n)
                               != inline_below(inline.getrandbits, n))
            mismatches += stdlib.random() != inline.random()
        mismatches += stdlib.getstate() != inline.getstate()
    return mismatches


# ---------------------------------------------------------------------------
# Tests (pytest)
# ---------------------------------------------------------------------------


def test_inlined_draws_match_the_stdlib_on_mixed_streams():
    assert draw_mismatches(range(100), 300) == 0


def test_single_item_ranges_still_consume_bits():
    # randrange(1) draws getrandbits(1) once: the stream must advance.
    assert draw_mismatches(range(50), 200, sizes=(1,)) == 0


def test_pool_and_set_methods_at_their_boundary():
    for sizes in ((POOL_LIMIT,), (POOL_LIMIT + 1,),
                  (2, POOL_LIMIT, POOL_LIMIT + 1, 64)):
        assert draw_mismatches(range(100), 200, sizes=sizes) == 0


def test_anneal_around_the_pool_limit_matches_reference():
    # The "shared" tasks all run on one core, so each needs a phase of its
    # own and the walk keeps at least that many phases: 20 to 24, across
    # the pool/set boundary.  Greedy piles the eight long free tasks into
    # the first phase; the peak-power walk improves by spreading them, so
    # the schedule it returns depends on its draws.
    from test_anneal_reference import (  # the frozen full-re-evaluation form
        local_search_schedule as reference_anneal)

    from repro.schedule.model import TestKind, TestTask
    from repro.schedule.power import PowerModel
    from repro.schedule.scheduler import local_search_schedule

    def bist(name, core, power):
        return TestTask(name=name, kind=TestKind.LOGIC_BIST, core=core,
                        pattern_count=8, power=power)

    for shared in (POOL_LIMIT - 1, POOL_LIMIT, POOL_LIMIT + 1, 24):
        tasks = {f"s{index:02d}": bist(f"s{index:02d}", "shared", 0.3)
                 for index in range(shared)}
        tasks.update((f"f{index}", bist(f"f{index}", f"c{index}", 0.2))
                     for index in range(8))
        estimates = {name: (500 if name.startswith("f") else 100) + 7 * index
                     for index, name in enumerate(tasks)}
        for seed in (1, 2, 3):
            arguments = dict(power_model=PowerModel(budget=2.0), seed=seed,
                             steps=256, cost="peak_power")
            got = local_search_schedule("s", tasks, estimates, **arguments)
            want = reference_anneal("s", tasks, estimates, **arguments)
            assert got.phases == want.phases


if __name__ == "__main__":
    import sys

    found = draw_mismatches(range(300), 300)
    found += draw_mismatches(range(300), 300,
                             sizes=(1, POOL_LIMIT, POOL_LIMIT + 1))
    print(f"Python {sys.version.split()[0]}: {found} mismatches")
    sys.exit(1 if found else 0)
