"""Differential tests of adaptive warm-start resume: a run checkpointed at
any round boundary and resumed from its JSON artifact finishes with rows,
survivors, front and artifact bytes identical to the uninterrupted run."""

import contextlib
import functools
import json
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.explore.adaptive as adaptive_module
import repro.explore.campaign as campaign_module
from repro.explore.adaptive import (
    ADAPTIVE_SCHEMA_VERSION,
    AdaptiveSearch,
    adaptive_search_from_axes,
    objective_vector,
    resume_search,
)
from repro.explore.campaign import SCHEMA_VERSION, clear_scenario_cache
from repro.explore.distrib import load_artifact
from repro.explore.scenarios import ScenarioGrid, ScenarioSpec


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


def small_search(**kwargs) -> AdaptiveSearch:
    return adaptive_search_from_axes(
        {"core_count": [1, 2], "tam_width_bits": [8, 32]},
        base=ScenarioSpec(name="base", patterns_per_core=16, seed=7),
        **kwargs,
    )


def round_trip(result, tmp_path, name="ckpt.json"):
    """Artifact as a real file: write JSON, load it back as a document."""
    path = tmp_path / name
    result.write_json(path)
    return json.loads(path.read_text()), path


class TestCheckpoints:
    def test_partial_run_is_a_checkpoint(self, tmp_path):
        search = small_search()
        partial = search.run(max_rounds=1)
        assert not partial.complete
        assert partial.front == []
        assert len(partial.rounds) == 1
        assert partial.planned_rounds == 3
        document, _ = round_trip(partial, tmp_path)
        assert document["complete"] is False
        assert document["completed_rounds"] == 1
        assert document["planned_rounds"] == 3
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["adaptive_schema_version"] == ADAPTIVE_SCHEMA_VERSION
        assert len(document["specs"]) == 4
        assert document["round_stats"][0]["simulated_jobs"] == 8

    def test_max_rounds_validation(self):
        with pytest.raises(ValueError, match="max_rounds"):
            small_search().run(max_rounds=0)

    def test_max_rounds_beyond_ladder_completes(self):
        result = small_search().run(max_rounds=99)
        assert result.complete
        assert result.front

    def test_documents_embed_the_search_definition(self, tmp_path):
        search = small_search(eta=2.0, min_budget=0.5)
        document, _ = round_trip(search.run(max_rounds=1), tmp_path)
        rebuilt = AdaptiveSearch.from_document(document)
        assert [s.name for s in rebuilt.specs] == [s.name for s in search.specs]
        assert rebuilt.specs == search.specs
        assert rebuilt.eta == search.eta
        assert rebuilt.min_budget == search.min_budget
        assert rebuilt.objectives == search.objectives
        assert rebuilt.schedules == search.schedules


class TestResumeDifferential:
    @pytest.fixture(scope="class")
    def uninterrupted(self):
        clear_scenario_cache()
        return small_search().run()

    def test_resume_at_every_round_boundary_reproduces_the_run(
            self, uninterrupted, tmp_path):
        full_document = uninterrupted.as_document()
        for boundary in range(1, uninterrupted.planned_rounds):
            clear_scenario_cache()
            partial = small_search().run(max_rounds=boundary)
            document, _ = round_trip(partial, tmp_path,
                                     name=f"ckpt{boundary}.json")
            clear_scenario_cache()
            resumed = resume_search(document)
            assert resumed.complete
            assert resumed.resumed_rounds == boundary
            # The front is identical (same pairs, same objective values)...
            assert [(o.spec.name, o.schedule) for o in resumed.front] == \
                [(o.spec.name, o.schedule) for o in uninterrupted.front]
            assert [objective_vector(o, resumed.objectives)
                    for o in resumed.front] == \
                [objective_vector(o, uninterrupted.objectives)
                 for o in uninterrupted.front]
            # ...and so is the whole artifact, byte for byte.
            assert resumed.as_document() == full_document

    def test_resumed_artifact_bytes_equal_uninterrupted(self, uninterrupted,
                                                        tmp_path):
        partial = small_search().run(max_rounds=1)
        document, _ = round_trip(partial, tmp_path)
        resumed = resume_search(document)
        resumed_path = tmp_path / "resumed.json"
        full_path = tmp_path / "full.json"
        resumed.write_json(resumed_path)
        uninterrupted.write_json(full_path)
        assert resumed_path.read_bytes() == full_path.read_bytes()
        resumed_csv, full_csv = tmp_path / "resumed.csv", tmp_path / "full.csv"
        resumed.write_csv(resumed_csv)
        uninterrupted.write_csv(full_csv)
        assert resumed_csv.read_bytes() == full_csv.read_bytes()

    def test_resume_on_a_worker_pool_stays_identical(self, uninterrupted,
                                                     tmp_path):
        partial = small_search().run(max_rounds=1)
        document, _ = round_trip(partial, tmp_path)
        resumed = resume_search(document, workers=2)
        assert resumed.as_document() == uninterrupted.as_document()

    def test_resume_only_simulates_the_remaining_rounds(self, tmp_path):
        partial = small_search().run(max_rounds=2)
        document, _ = round_trip(partial, tmp_path)
        resumed = resume_search(document)
        # Replayed rounds report their original simulation counters but cost
        # no simulations on resume: the new wall clock covers only round 2.
        assert resumed.resumed_rounds == 2
        assert [r.simulated_jobs for r in resumed.rounds] == \
            [r.simulated_jobs for r in partial.rounds] + \
            [resumed.rounds[-1].simulated_jobs]
        assert resumed.rounds[0].run.wall_seconds == 0.0
        assert resumed.rounds[1].run.wall_seconds == 0.0

    def test_recheckpointing_a_resumed_run(self, uninterrupted, tmp_path):
        # checkpoint after round 1, resume to round 2, resume to the end.
        first, _ = round_trip(small_search().run(max_rounds=1), tmp_path,
                              name="r1.json")
        second, _ = round_trip(resume_search(first, max_rounds=2), tmp_path,
                               name="r2.json")
        assert second["completed_rounds"] == 2
        final = resume_search(second)
        assert final.as_document() == uninterrupted.as_document()


class TestResumeValidation:
    def checkpoint(self, tmp_path, **kwargs):
        document, _ = round_trip(small_search().run(max_rounds=1), tmp_path)
        return document

    def test_complete_artifact_rejected(self, tmp_path):
        document, _ = round_trip(small_search().run(), tmp_path)
        with pytest.raises(ValueError, match="already complete"):
            resume_search(document)

    def test_wrong_schema_versions_rejected(self, tmp_path):
        document = self.checkpoint(tmp_path)
        stale = dict(document, schema_version=SCHEMA_VERSION - 1)
        with pytest.raises(ValueError, match="schema_version"):
            resume_search(stale)
        stale = dict(document,
                     adaptive_schema_version=ADAPTIVE_SCHEMA_VERSION - 1)
        with pytest.raises(ValueError, match="adaptive_schema_version"):
            resume_search(stale)

    def test_campaign_artifact_rejected(self, tmp_path):
        from repro.explore.campaign import Campaign

        run = Campaign([ScenarioSpec(name="c", patterns_per_core=8,
                                     core_count=1)]).run()
        path = tmp_path / "campaign.json"
        run.write_json(path, deterministic=True)
        with pytest.raises(ValueError, match="adaptive_schema_version"):
            resume_search(json.loads(path.read_text()))

    def test_budget_ladder_mismatch_rejected(self, tmp_path):
        document = self.checkpoint(tmp_path)
        other = small_search(min_budget=0.5)
        with pytest.raises(ValueError, match="budget ladder"):
            other.run(resume_from=document)

    def test_candidate_mismatch_rejected(self, tmp_path):
        document = self.checkpoint(tmp_path)
        for row in document["rows"]:
            row["scenario"] = "intruder"
        with pytest.raises(ValueError, match="different\\s+candidates"):
            AdaptiveSearch.from_document(document).run(resume_from=document)

    def test_tampered_survivors_rejected(self, tmp_path):
        document = self.checkpoint(tmp_path)
        for row in document["rows"]:
            row["survivor"] = not row["survivor"]
        with pytest.raises(ValueError, match="survivors"):
            resume_search(document)

    def test_tampered_simulation_counter_rejected(self, tmp_path):
        document = self.checkpoint(tmp_path)
        document["round_stats"][0]["simulated_jobs"] += 1
        with pytest.raises(ValueError, match="simulated job"):
            resume_search(document)

    def test_doctored_spec_refused_before_any_scenario_is_built(
            self, tmp_path, monkeypatch):
        """A surrogate search screens every declared scenario, so the
        checkpoint must be refused before the screen builds the doctored
        (here: 20 000-core) spec."""
        document, _ = round_trip(
            small_search(surrogate=True).run(max_rounds=1), tmp_path)
        document["specs"][1]["core_count"] = 20000

        def refuse(spec):
            raise AssertionError(f"scenario {spec.name!r} was built")

        monkeypatch.setattr(adaptive_module, "cached_scenario", refuse)
        monkeypatch.setattr(campaign_module, "cached_scenario", refuse)
        monkeypatch.setattr(campaign_module, "build_scenario", refuse)
        with pytest.raises(ValueError, match="does not match the scenario"):
            resume_search(document)

    def test_empty_checkpoint_rejected(self, tmp_path):
        document = self.checkpoint(tmp_path)
        document["completed_rounds"] = 0
        document["budgets"] = []
        with pytest.raises(ValueError, match="no completed rounds"):
            resume_search(document)


@pytest.mark.slow
def test_large_grid_resume_at_every_round_boundary_bitwise(tmp_path):
    """The ISSUE acceptance case: a large grid interrupted at each round
    boundary and resumed reproduces the uninterrupted front exactly."""
    def make_search():
        grid = ScenarioGrid(
            {"core_count": [1, 2, 3], "tam_width_bits": [8, 16, 32],
             "compression_ratio": [10.0, 100.0]},
            base=ScenarioSpec(name="base", patterns_per_core=16, seed=11),
        )
        return AdaptiveSearch(grid, eta=3.0, min_budget=0.25)

    clear_scenario_cache()
    uninterrupted = make_search().run(workers=2)
    full_path = tmp_path / "full.json"
    uninterrupted.write_json(full_path)
    for boundary in range(1, uninterrupted.planned_rounds):
        clear_scenario_cache()
        partial = make_search().run(workers=2, max_rounds=boundary)
        ckpt = tmp_path / f"ckpt{boundary}.json"
        partial.write_json(ckpt)
        clear_scenario_cache()
        resumed = resume_search(json.loads(ckpt.read_text()), workers=2)
        resumed_path = tmp_path / f"resumed{boundary}.json"
        resumed.write_json(resumed_path)
        assert resumed_path.read_bytes() == full_path.read_bytes()
        assert {(o.spec.name, o.schedule) for o in resumed.front} == \
            {(o.spec.name, o.schedule) for o in uninterrupted.front}


# -- decoder fuzz ---------------------------------------------------------------

#: Row metrics no other column restates: a resume replays them as recorded,
#: because checking them would mean simulating the round again.
_UNVERIFIABLE_METRICS = frozenset({
    "phase_count", "task_count", "estimated_cycles", "peak_tam_utilization",
    "avg_tam_utilization", "peak_power", "avg_power",
    "simulated_activations"})


def tiny_search() -> AdaptiveSearch:
    return adaptive_search_from_axes(
        {"core_count": [1, 2]},
        base=ScenarioSpec(name="base", patterns_per_core=8, seed=3))


@functools.lru_cache(maxsize=None)
def _checkpoint_bytes() -> bytes:
    """A one-round checkpoint of :func:`tiny_search`, as written to disk."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ckpt.json"
        tiny_search().run(max_rounds=1).write_json(path)
        return path.read_bytes()


@contextlib.contextmanager
def _bounded(seconds=5.0, megabytes=64):
    """Interrupt a resume that runs longer or holds more memory than a tiny
    search can need.  A 50 ms timer checks both, so a runaway loop stops
    long before it strains the host."""
    limit = megabytes * 2 ** 20
    deadline = time.monotonic() + seconds

    def check(signum, frame):
        if tracemalloc.get_traced_memory()[0] > limit:
            raise MemoryError(f"resume holds more than {megabytes} MB")
        if time.monotonic() > deadline:
            raise TimeoutError(f"resume ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, check)
    tracemalloc.start()
    signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
    try:
        yield
        assert tracemalloc.get_traced_memory()[1] <= limit
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        tracemalloc.stop()
        signal.signal(signal.SIGALRM, previous)


def _only_unverifiable_metrics_differ(original, mutated) -> bool:
    if not isinstance(mutated, dict) or set(original) != set(mutated) or any(
            original[key] != mutated[key] for key in original
            if key != "rows"):
        return False
    rows, mutated_rows = original["rows"], mutated["rows"]
    return (isinstance(mutated_rows, list)
            and len(rows) == len(mutated_rows)
            and all(isinstance(changed, dict) and set(row) == set(changed)
                    and all(row[column] == changed[column]
                            or column in _UNVERIFIABLE_METRICS
                            for column in row)
                    for row, changed in zip(rows, mutated_rows)))


def _resume_or_refuse(raw: bytes, path: Path) -> str:
    """Resume from *raw* the way the CLI does; return ``"refused"`` on the
    documented ValueError, else check the result and return ``"resumed"``.

    A resume may only return the result an uninterrupted run of the search
    the document declares would give, or, where only replayed metrics that
    nothing restates were changed, a result that differs in those alone.
    """
    path.write_bytes(raw)
    clear_scenario_cache()
    try:
        with _bounded():
            document = load_artifact(path)
            result = resume_search(document)
    except ValueError:
        return "refused"
    clear_scenario_cache()
    with _bounded():
        fresh = AdaptiveSearch.from_document(document).run()
    if result.as_document() != fresh.as_document():
        original = json.loads(_checkpoint_bytes())
        assert _only_unverifiable_metrics_differ(original, document), \
            "resumed a wrong result"
    return "resumed"


_WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))

_HUGE = st.sampled_from([2 ** 31, 2 ** 63, 10 ** 30, 10 ** 400, -2 ** 63])


@st.composite
def _field_paths(draw, document):
    """A path to one field of the document: top level, or one level into a
    spec, a row or a round's stats."""
    key = draw(st.sampled_from(sorted(document)))
    value = document[key]
    if key in ("specs", "rows", "round_stats") and draw(st.booleans()):
        index = draw(st.integers(0, len(value) - 1))
        return (key, index, draw(st.sampled_from(sorted(value[index]))))
    return (key,)


def _replace(document, path, value):
    target = document
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value


class TestResumeDecoderFuzz:
    """Malformed resume documents raise ValueError, terminate promptly
    within bounded memory, and never resume a wrong result."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncations_are_refused(self, data, tmp_path):
        raw = _checkpoint_bytes()
        cut = data.draw(st.integers(0, len(raw) - 2))  # keep short of "}\n"
        assert _resume_or_refuse(raw[:cut], tmp_path / "t.json") == "refused"

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bit_flips_are_refused_or_harmless(self, data, tmp_path):
        raw = bytearray(_checkpoint_bytes())
        bit = data.draw(st.integers(0, len(raw) * 8 - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
        _resume_or_refuse(bytes(raw), tmp_path / "f.json")

    @given(which=st.sampled_from(["schema_version",
                                  "adaptive_schema_version"]),
           version=_WRONG_TYPES | st.integers(-3, 10))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_wrong_versions_are_refused(self, which, version, tmp_path):
        document = json.loads(_checkpoint_bytes())
        assume(version != document[which] or isinstance(version, bool))
        document[which] = version
        raw = json.dumps(document).encode()
        assert _resume_or_refuse(raw, tmp_path / "v.json") == "refused"

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_wrong_field_types_are_refused_or_harmless(self, data, tmp_path):
        document = json.loads(_checkpoint_bytes())
        path = data.draw(_field_paths(document))
        _replace(document, path, data.draw(_WRONG_TYPES))
        _resume_or_refuse(json.dumps(document).encode(),
                          tmp_path / "w.json")

    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_huge_declared_counts_are_refused_or_harmless(self, data,
                                                          tmp_path):
        document = json.loads(_checkpoint_bytes())
        path = data.draw(st.sampled_from([
            ("completed_rounds",), ("planned_rounds",),
            ("round_stats", 0, "simulated_jobs"), ("rows", 0, "round"),
            ("exhaustive_jobs",), ("eta",), ("min_budget",),
            ("specs", 0, "patterns_per_core"), ("specs", 1, "core_count")]))
        _replace(document, path, data.draw(_HUGE))
        _resume_or_refuse(json.dumps(document).encode(), tmp_path / "h.json")

    @pytest.mark.parametrize("eta,min_budget", [(1 + 1e-12, 1e-300),
                                                (1.0001, 1e-9)])
    def test_a_ladder_of_huge_length_is_refused(self, eta, min_budget,
                                                tmp_path):
        document = json.loads(_checkpoint_bytes())
        document.update(eta=eta, min_budget=min_budget)
        raw = json.dumps(document).encode()
        assert _resume_or_refuse(raw, tmp_path / "l.json") == "refused"

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda d: d.pop("specs"), id="no-specs"),
        pytest.param(lambda d: d.update(specs=5), id="specs-5"),
        pytest.param(lambda d: d.update(completed_rounds=[1]),
                     id="completed-rounds-list"),
        pytest.param(lambda d: d["rows"][0].pop("scenario"),
                     id="row-without-scenario"),
        pytest.param(lambda d: d["rows"][0].pop("survivor"),
                     id="row-without-survivor"),
        pytest.param(lambda d: d.update(eta=float("nan")), id="eta-nan"),
        pytest.param(lambda d: d.update(completed_rounds=float("inf")),
                     id="completed-rounds-inf"),
        pytest.param(lambda d: d["rows"][0].update(seed=4),
                     id="row-of-another-seed"),
    ])
    def test_named_malformations_raise_value_error(self, mutate, tmp_path):
        document = json.loads(_checkpoint_bytes())
        mutate(document)
        raw = json.dumps(document).encode()
        assert _resume_or_refuse(raw, tmp_path / "n.json") == "refused"

    def test_the_intact_checkpoint_resumes(self, tmp_path):
        assert _resume_or_refuse(_checkpoint_bytes(),
                                 tmp_path / "ok.json") == "resumed"
