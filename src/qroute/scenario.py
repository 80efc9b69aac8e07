"""Scenario files: one JSON document drives every CLI subcommand.

The schema is the field tables below, one per JSON object; README shows
an example. Parsing is strict: an unknown key, a value of the wrong JSON
type or a non-finite number is rejected, and every error names its JSON
path. An absent key takes the default of the dataclass it builds, and
range checks live in those dataclasses and in `build_graph`.
`scenario_to_dict` walks the same tables back.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

from .analytics import POLICY_KINDS, SwapPolicy
from .montecarlo import SimConfig
from .netmodel import (
    EdgeParams,
    NetworkGraph,
    NodeParams,
    PhysicalConstants,
    build_graph,
    edge_key,
    grid_topology,
)
from .routing import AllocatorConfig, Request, UtilitySpec

SCHEMA_VERSION = 1

# One table per JSON object, {key: kind}. A kind is int (a JSON integer,
# never a bool), float (any finite number), bool, str, SwapPolicy (a policy
# name), float | None, [kind] for an array, a table for a nested object, or
# {str: kind} for an object keyed by names of the user's choosing.
PHYSICAL = {
    "attenuation_alpha_per_km": float,
    "attempts_per_slot": int,
    "base_efficiency": float,
    "swap_bound_mode": str,
}
NODE_PARAMS = {"swap_prob": float, "memory_cutoff_slots": int}
EDGE_PARAMS = {"capacity": int, "length_km": float, "link_prob": float | None}
NODE = {"id": str, **NODE_PARAMS}
EDGE = {"u": str, "v": str, **EDGE_PARAMS}
GRID = {"rows": int, "cols": int, "node": NODE_PARAMS, "edge": EDGE_PARAMS}
GRAPH = {"nodes": [NODE], "edges": [EDGE], "grid": GRID}
REQUEST = {
    "id": str,
    "source": str,
    "dest": str,
    "rate_target": float,
    "min_fidelity": float,
}
ANALYTICS = {"paths": [[str]], "policy": SwapPolicy, "order_search": bool}
ROUTING = {
    "k": int,
    "utility": str,
    "weights": {str: float},
    "policy": SwapPolicy,
}
SIM_PATH = {"request": str, "nodes": [str], "width": int, "policy": SwapPolicy}
SIM = {
    "scheme": str,
    "forwarding": str,
    "policy": SwapPolicy,
    "slots": int,
    "seed": int,
    "node_disjoint": bool,
    "max_paths_per_request": int,
    "paths": [SIM_PATH],
}
OUTPUT = {"format": str}
SCHEMA = {
    "version": int,
    "physical": PHYSICAL,
    "graph": GRAPH,
    "elementary_fidelity": float,
    "requests": [REQUEST],
    "analytics": ANALYTICS,
    "routing": ROUTING,
    "sim": SIM,
    "output": OUTPUT,
}
# JSON keys whose constructor keyword differs
RENAME = {
    "attenuation_alpha_per_km": "attenuation_alpha",
    "request": "request_id",
    "utility": "kind",
    "format": "output_format",
}
_JSON_KEY = {kw: key for key, kw in RENAME.items()}
_EXPECTED = {
    int: "an integer",
    float: "a finite number",
    float | None: "a finite number or null",
    bool: "true or false",
    str: "a string",
    SwapPolicy: "a policy name",
}
_AS_IS = (int, float, float | None, bool, str)  # kinds emitted unchanged


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


def policy_from_name(name: str) -> SwapPolicy:
    if name not in POLICY_KINDS or name == "explicit":
        raise ScenarioError(f"unknown swapping policy {name!r}")
    return SwapPolicy(name)


@dataclass(frozen=True)
class AnalyticsTargets:
    paths: tuple[tuple[str, ...], ...] = ()
    policy: SwapPolicy = SwapPolicy("doubling")
    order_search: bool = False

    def __post_init__(self):
        if self.policy.kind == "adhoc":
            raise ValueError("policy: cannot be adhoc (no closed-form distribution)")


@dataclass(frozen=True)
class ExplicitPath:
    request_id: str
    nodes: tuple[str, ...]
    width: int = 1
    policy: SwapPolicy | None = None

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width: must be >= 1, got {self.width}")


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario; its `elementary_fidelity` lives in `routing`."""

    graph: NetworkGraph
    requests: tuple[Request, ...] = ()
    analytics: AnalyticsTargets = field(default_factory=AnalyticsTargets)
    routing: AllocatorConfig = field(default_factory=AllocatorConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    explicit_paths: tuple[ExplicitPath, ...] = ()
    output_format: str = "json"

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise ValueError(
                f"output_format: must be json or csv, got {self.output_format!r}"
            )


def _at(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _mistyped(where: str, expected: str, value) -> ScenarioError:
    got = json.dumps(value, default=repr)
    return ScenarioError(f"{where or 'scenario'}: expected {expected}, got {got}")


class _Repeated(dict):
    """A JSON object that names a key twice; `key` is the first repeat."""


def _json_object(pairs: list) -> dict:
    """`object_pairs_hook` for `json.loads`: keeps every repeated key in
    sight, where a plain dict keeps only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        obj = _Repeated(obj)
        obj.key = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def _object(data, where: str) -> None:
    if not isinstance(data, dict):
        raise _mistyped(where, "an object", data)
    if isinstance(data, _Repeated):
        raise ScenarioError(f"{_at(where, data.key)}: duplicate key")


def _read(data, table: dict, where: str) -> dict:
    """Check one JSON object against its table; return the fields it has as
    constructor keywords."""
    _object(data, where)
    for key in data:
        if key not in table:
            raise ScenarioError(f"{_at(where, key)}: unknown field")
    return {
        RENAME.get(key, key): _check(value, table[key], _at(where, key))
        for key, value in data.items()
    }


def _check(value, kind, where: str):
    """`value` checked against `kind`, in the form constructors take."""
    if kind is str or kind is bool:
        if isinstance(value, kind):
            return value
    elif kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind is float or kind == float | None:
        if value is None and kind is not float:  # link_prob: derive from length
            return None
        # finite, and within float range when it is a JSON integer
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):
            return float(value)
    elif kind is SwapPolicy:
        if isinstance(value, str):
            try:
                return policy_from_name(value)
            except ScenarioError as exc:
                raise ScenarioError(f"{where}: {exc}") from None
    elif isinstance(kind, list):
        if isinstance(value, list):
            return tuple(
                _check(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)
            )
        raise _mistyped(where, "an array", value)
    elif str in kind:
        _object(value, where)
        return tuple(sorted(
            (key, _check(v, kind[str], _at(where, key)))
            for key, v in value.items()
        ))
    else:
        return _read(value, kind, where)
    raise _mistyped(where, _EXPECTED[kind], value)


@cache
def _required(build) -> tuple[str, ...]:
    params = inspect.signature(build).parameters.values()
    return tuple(p.name for p in params if p.default is p.empty)


def _make(where: str, build, /, **kw):
    """`build(**kw)`; a missing field or a failed range check names `where`,
    and the field too when the check's message starts with "<keyword>: "."""
    for name in _required(build):
        if name not in kw:
            raise ScenarioError(f"{_at(where, _JSON_KEY.get(name, name))}: missing field")
    try:
        return build(**kw)
    except ValueError as exc:
        name, sep, why = str(exc).partition(": ")
        if sep and name in kw:
            where, exc = _at(where, _JSON_KEY.get(name, name)), why
        raise ScenarioError(f"{where}: {exc}") from None


def _check_route(graph: NetworkGraph, nodes: tuple[str, ...], where: str) -> None:
    if len(nodes) < 2:
        raise ScenarioError(f"{where}: needs at least 2 nodes")
    for i, n in enumerate(nodes):
        if not graph.has_node(n):
            raise ScenarioError(f"{where}: unknown node {n!r}")
        if n in nodes[:i]:
            raise ScenarioError(f"{where}: route visits node {n!r} twice")
    for u, v in zip(nodes, nodes[1:]):
        if not graph.has_edge(u, v):
            raise ScenarioError(f"{where}: no edge between {u!r} and {v!r}")


def _graph(gd: dict, phys: PhysicalConstants) -> NetworkGraph:
    if "grid" in gd:
        if "nodes" in gd or "edges" in gd:
            raise ScenarioError("graph: give either grid or nodes and edges")
        grid = gd["grid"]
        return _make(
            "graph.grid", grid_topology,
            default_node=_make("graph.grid.node", NodeParams, id="",
                               **grid.pop("node", {})),
            default_edge=_make("graph.grid.edge", EdgeParams, u="", v="",
                               **grid.pop("edge", {})),
            phys=phys, **grid,
        )
    nodes = [
        _make(f"graph.nodes[{i}]", NodeParams, **kw)
        for i, kw in enumerate(gd.get("nodes", ()))
    ]
    edges = [
        _make(f"graph.edges[{i}]", EdgeParams, **kw)
        for i, kw in enumerate(gd.get("edges", ()))
    ]
    return _make("graph", build_graph, node_specs=nodes, edge_specs=edges,
                 phys=phys)


def scenario_from_dict(data: dict) -> Scenario:
    d = _read(data, SCHEMA, "")
    if "version" not in d:
        raise ScenarioError("version: missing field")
    if d["version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"version: unsupported scenario version {d['version']}; this build "
            f"reads version {SCHEMA_VERSION}"
        )

    phys = _make("physical", PhysicalConstants, **d.get("physical", {}))
    graph = _graph(d.get("graph", {}), phys)

    f0 = d.get("elementary_fidelity", AllocatorConfig.elementary_fidelity)
    if not 0.25 < f0 <= 1:
        raise ScenarioError(f"elementary_fidelity: {f0} outside (0.25, 1]")

    requests = tuple(
        _make(f"requests[{i}]", Request, **{"id": f"r{i}", **kw})
        for i, kw in enumerate(d.get("requests", ()))
    )
    declared = {}
    for i, req in enumerate(requests):
        for endpoint in (req.source, req.dest):
            if not graph.has_node(endpoint):
                raise ScenarioError(
                    f"requests[{i}]: request {req.id!r}: unknown node {endpoint!r}"
                )
        if req.id in declared:
            raise ScenarioError(
                f"requests[{i}].id: request id {req.id!r} appears more than once"
            )
        declared[req.id] = req

    analytics = _make("analytics", AnalyticsTargets, **d.get("analytics", {}))
    for i, nodes in enumerate(analytics.paths):
        where = f"analytics.paths[{i}]"
        _check_route(graph, nodes, where)
        for u, v in zip(nodes, nodes[1:]):
            if graph.edge(u, v).capacity < 1:
                raise ScenarioError(f"{where}: edge ({u!r}, {v!r}) has capacity 0")

    rt = d.get("routing", {})
    for rid, weight in rt.get("weights", ()):
        if rid not in declared:
            raise ScenarioError(f"routing.weights.{rid}: no request has id {rid!r}")
        if weight < 0:  # utilities are non-decreasing in the rate
            raise ScenarioError(f"routing.weights.{rid}: weight {weight} is negative")
    utility = _make("routing", UtilitySpec, **{
        key: rt.pop(key) for key in ("kind", "weights") if key in rt
    })
    routing = _make("routing", AllocatorConfig, utility=utility,
                    elementary_fidelity=f0, **rt)

    sd = d.get("sim", {})
    explicit = tuple(
        _make(f"sim.paths[{i}]", ExplicitPath, **{"request_id": f"r{i}", **kw})
        for i, kw in enumerate(sd.pop("paths", ()))
    )
    residual = {edge_key(e.u, e.v): e.capacity for e in graph.edges}
    for i, p in enumerate(explicit):
        where = f"sim.paths[{i}]"
        _check_route(graph, p.nodes, where)
        req = declared.get(p.request_id)
        ends = (p.nodes[0], p.nodes[-1])
        if req and ends not in ((req.source, req.dest), (req.dest, req.source)):
            raise ScenarioError(
                f"{where}: runs {ends[0]!r} to {ends[1]!r}, but request "
                f"{req.id!r} is {req.source!r} -> {req.dest!r}"
            )
        for u, v in zip(p.nodes, p.nodes[1:]):
            residual[edge_key(u, v)] -= p.width
            if residual[edge_key(u, v)] < 0:
                raise ScenarioError(f"{where}: overallocates edge ({u!r}, {v!r})")
    sim = _make("sim", SimConfig, **sd)

    return _make(
        "output", Scenario,
        graph=graph, requests=requests, analytics=analytics, routing=routing,
        sim=sim, explicit_paths=explicit, **d.get("output", {}),
    )


def parse_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file {path} does not exist")
    try:
        data = json.loads(path.read_text(), object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    return scenario_from_dict(data)


def _emit(table: dict, *sources) -> dict:
    """The JSON object `table` describes, each field read with getattr from
    the first source where it is set. Fields set nowhere are left out."""
    out = {}
    for key, kind in table.items():
        attr = RENAME.get(key, key)
        for source in sources:
            value = getattr(source, attr, None)
            if value is not None:
                out[key] = value if kind in _AS_IS else _plain(value, kind)
                break
    return out


def _plain(value, kind):
    if isinstance(kind, list):
        return [_plain(v, kind[0]) for v in value]
    if kind is SwapPolicy:
        return value.kind
    if isinstance(kind, dict):
        return dict(value) if str in kind else _emit(kind, value)
    return value


def scenario_to_dict(s: Scenario) -> dict:
    """Emit a dict that parses back into an equal Scenario."""
    d = {
        "version": SCHEMA_VERSION,
        "physical": _emit(PHYSICAL, s.graph.phys),
        "graph": _emit(GRAPH, s.graph),
        "elementary_fidelity": s.routing.elementary_fidelity,
        "requests": _plain(s.requests, SCHEMA["requests"]),
        "analytics": _emit(ANALYTICS, s.analytics),
        "routing": _emit(ROUTING, s.routing, s.routing.utility),
        "sim": _emit(SIM, s.sim),
        "output": _emit(OUTPUT, s),
    }
    if s.explicit_paths:
        d["sim"]["paths"] = _plain(s.explicit_paths, SIM["paths"])
    return d


# CLI flag -> SimConfig field
_SIM_FLAGS = {"seed": "seed", "slots": "slots", "mode": "forwarding",
              "scheme": "scheme"}


def apply_overrides(s: Scenario, overrides: dict) -> Scenario:
    """Apply CLI flag overrides; keys follow the flag names."""
    sim = {_SIM_FLAGS[k]: v for k, v in overrides.items() if k in _SIM_FLAGS}
    changes = {}
    if "format" in overrides:
        changes["output_format"] = overrides["format"]
    try:
        if "policy" in overrides:
            policy = sim["policy"] = policy_from_name(overrides["policy"])
            if policy.kind != "adhoc":  # adhoc is simulation-only
                changes["analytics"] = replace(s.analytics, policy=policy)
                changes["routing"] = replace(s.routing, policy=policy)
        if sim:
            changes["sim"] = replace(s.sim, **sim)
        return replace(s, **changes)
    except ValueError as exc:
        # a range check's "<keyword>: why" reads "overrides: <keyword> why"
        raise ScenarioError(f"overrides: {str(exc).replace(': ', ' ', 1)}") from None
