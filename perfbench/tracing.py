"""Span recording around the calls the benchmark makes into each layer.

The wrappers are installed from outside the package, where callers look the
functions up: the names ``cli`` imports, the module globals that other
modules of the package call through, three methods on their classes, and
the callables of every oracle record that ``named_instance``,
``named_modulus`` or a mutant constructor returns (swapped in with
``dataclasses.replace``).  Spans are kept in flat in-memory arrays and
written out only when the run ends.
"""

from __future__ import annotations

import dataclasses
import gzip
from array import array
from collections import Counter
from time import perf_counter

# (module attribute holding the lookup, attribute, span name).  The same
# function is wrapped at every place a caller looks it up, under one name.
FUNCTION_SITES = (
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "preorder_from_json", "core.preorder_from_json"),
    ("cli", "check_axioms", "core.check_axioms"),
    ("cli", "find_equivalence", "core.find_equivalence"),
    ("cli", "find_umap", "core.find_umap"),
    ("core", "validate_witness", "core.validate_witness"),
    ("functors", "verify_equivalence", "core.verify_equivalence"),
    ("cli", "functor_G_obj", "functors.functor_G_obj"),
    ("functors", "functor_G_obj", "functors.functor_G_obj"),
    ("cli", "functor_F_obj", "functors.functor_F_obj"),
    ("functors", "functor_F_obj", "functors.functor_F_obj"),
    ("cli", "roundtrip_GF", "functors.roundtrip_GF"),
    ("cli", "roundtrip_FG", "functors.roundtrip_FG"),
    ("cli", "random_spatial_preorder", "functors.random_spatial_preorder"),
    ("cli", "enumerate_topologies", "topology.enumerate_topologies"),
    ("cli", "validate_topology", "topology.validate_topology"),
    ("functors", "validate_topology", "topology.validate_topology"),
    ("topology", "validate_topology", "topology.validate_topology"),
    ("functors", "union_closure", "topology.union_closure"),
    ("topology", "union_closure", "topology.union_closure"),
    ("cli", "topology_from_json", "topology.topology_from_json"),
    ("cli", "verify_morphism", "morphisms.verify_morphism"),
    ("cli", "compose", "morphisms.compose"),
    ("cli", "morphism_from_json", "morphisms.morphism_from_json"),
    ("cli", "sample_check", "lazy.sample_check"),
    ("cli", "check_modulus", "lazy.check_modulus"),
    ("program", "main", "cli.main"),
    ("program", "sample_check", "lazy.sample_check"),
)

METHOD_SITES = (
    ("core", "FinFibrousPreorder", "__post_init__", "core.FinFibrousPreorder"),
    ("report", "Collector", "add", "report.Collector.add"),
    ("report", "AxiomReport", "to_json", "report.AxiomReport.to_json"),
)

# Factories whose oracle records get traced callables.
ORACLE_FACTORIES = (
    ("cli", "named_instance"),
    ("program", "broken_metric_q"),
    ("program", "broken_padic"),
)

ORACLE_CALLS = ("proj", "rel", "delta", "unit", "meet")

SPAN_NAMES = (
    "command",
    *dict.fromkeys(name for _, _, name in FUNCTION_SITES),
    *(name for _, _, _, name in METHOD_SITES),
    *(f"lazy.{call}" for call in ORACLE_CALLS),
    "lazy.draw",
)


class Tracer:
    """Records nested spans; the span open when a call starts is its parent."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._command = -1
        # per-instance oracle counts, keyed by (instance label, call)
        self.label = ""
        self.oracle_calls = Counter()
        self.rel_true = Counter()
        self.rounds = Counter()
        self._patches = []

    # -- recording ------------------------------------------------------

    def wrap(self, fn, name: str, count_label: str | None = None):
        nid = self._ids[name]
        names, parents, commands = self.name_id, self.parent, self.command
        starts, ends, stack = self.start, self.end, self._stack
        oracle_calls, rel_true = self.oracle_calls, self.rel_true
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            commands.append(tracer._command)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if count_label is not None:
                oracle_calls[tracer.label, count_label] += 1
                if count_label == "rel" and out:
                    rel_true[tracer.label] += 1
            return out

        return traced

    def run_command(self, fn, label: str, rounds: int):
        """Run one command under a root span; ``label`` names its lazy instance."""
        self._command += 1
        self.label = label
        if label:
            self.rounds[label] += rounds
        return self.wrap(fn, "command")()

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_sampler(self, factory):
        draw = self.wrap(next, "lazy.draw", "draw")

        def sampler(seed):
            stream = factory(seed)
            while True:
                yield draw(stream)

        return sampler

    def wrap_oracle(self, oracle):
        changes = {
            call: self.wrap(getattr(oracle, call), f"lazy.{call}", call)
            for call in ORACLE_CALLS
        }
        changes["point_sampler"] = self._wrap_sampler(oracle.point_sampler)
        changes["element_sampler"] = self._wrap_sampler(oracle.element_sampler)
        return dataclasses.replace(oracle, **changes)

    def _wrap_factory(self, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap_oracle(factory(*args, **kwargs))

        return traced_factory

    def _wrap_modulus_factory(self, factory):
        def traced_factory(*args, **kwargs):
            mor = factory(*args, **kwargs)
            source = self.wrap_oracle(mor.source)
            target = source if mor.target is mor.source else self.wrap_oracle(mor.target)
            return dataclasses.replace(mor, source=source, target=target)

        return traced_factory

    def install(self, program):
        """Swap traced wrappers into the program's lookup sites."""
        owners = {
            "program": program,
            "cli": program.cli,
            "core": program.core,
            "functors": program.functors,
            "topology": program.topology,
            "report": program.report,
        }
        for owner, attr, name in FUNCTION_SITES:
            self._set(owners[owner], attr, self.wrap(getattr(owners[owner], attr), name))
        for owner, cls_name, attr, name in METHOD_SITES:
            cls = getattr(owners[owner], cls_name)
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name))
        for owner, attr in ORACLE_FACTORIES:
            self._set(owners[owner], attr, self._wrap_factory(getattr(owners[owner], attr)))
        self._set(program.cli, "named_modulus", self._wrap_modulus_factory(program.cli.named_modulus))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, labels) -> dict[str, float]:
        """Per-span-name self time and call counts, plus oracle counts per
        round for each instance label.  Self time is a span's duration minus
        its children's.  Labels that did not run read 0."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_time[p] -= dur[i]
        out = {}
        for name in self.names:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            out[f"{name}.self_s"] += self_time[i]
            out[f"{name}.calls"] += 1
        rel_calls = sum(c for (_, call), c in self.oracle_calls.items() if call == "rel")
        out["lazy.rel.true_share"] = sum(self.rel_true.values()) / rel_calls if rel_calls else 0.0
        for label in labels:
            key = f"lazy.{label.replace(':', '-')}"  # metric names have no ':'
            rounds = self.rounds[label]
            for call in ("rel", "delta", "meet"):
                out[f"{key}.{call}.per_round"] = self.oracle_calls[label, call] / rounds if rounds else 0.0
            calls = self.oracle_calls[label, "rel"]
            out[f"{key}.rel.true_share"] = self.rel_true[label] / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\tcommand\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.command[i]}\t{names[self.name_id[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
