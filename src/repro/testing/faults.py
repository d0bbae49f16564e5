"""Deterministic fault injection for the resilient run-plan executor.

Every recovery path of the harness (retry, quarantine, pool rebuild,
trace-store eviction — DESIGN.md §12) is exercised through this
module rather than through ad-hoc monkeypatching, so the same faults
run identically in unit tests, in the CI chaos-smoke job, and from the
CLI's ``--faults FILE`` flag.

A *fault plan* is a JSON file naming a list of :class:`FaultSpec`
entries plus a *spool* directory.  The plan is armed by exporting the
file's path in the ``REPRO_FAULTS`` environment variable (the CLI flag
does exactly that), which means forked pool workers inherit the plan
with no extra plumbing.  Instrumented sites call :func:`fire`; a spec
matches a site by name plus ``fnmatch`` patterns over the cell's
program and config label.

Determinism has two parts:

* **targeting** — faults name their victim cell by pattern, never by
  wall clock or randomness, so a plan always hits the same cells;
* **budgets** — each spec fires at most ``times`` times *across all
  processes*.  Claims are arbitrated through the spool directory: the
  *k*-th firing of spec *i* atomically creates ``fault-i-k.fired``
  with ``O_CREAT | O_EXCL``, so concurrent pool workers can never
  overspend a budget, and a claim survives the worker being killed —
  which is precisely what the ``kill`` action does.

Actions:

``raise``
    Raise :class:`FaultInjectedError` (a deterministic cell failure —
    two identical firings trigger the executor's quarantine rule).
``hang``
    Sleep ``hang_s`` seconds, long enough to trip the per-cell
    deadline.
``kill``
    ``SIGKILL`` the current process — in a pool worker this surfaces
    as ``BrokenProcessPool`` in the supervisor; in a serial run it is
    a hard abort (re-running against the same ``--store`` recovers
    from it).
``corrupt``
    Deterministically flip bytes of the file passed by the calling
    site (the trace store's loader fires this before verifying an
    entry, so the digest check sees real corruption).
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import time
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: environment variable naming the armed fault-plan JSON file
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: schema stamp written into every fault-plan file
PLAN_SCHEMA = "repro-faults/v1"

#: known injection sites (callers pass one of these to :func:`fire`)
SITES: Tuple[str, ...] = ("cell", "trace-file")

#: known actions a spec may request
ACTIONS: Tuple[str, ...] = ("raise", "hang", "kill", "corrupt")


class FaultInjectedError(RuntimeError):
    """The deterministic exception raised by ``raise`` faults."""


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: where it fires, what it does, how often."""

    action: str
    site: str = "cell"
    #: ``fnmatch`` pattern over the cell's program name
    program: str = "*"
    #: ``fnmatch`` pattern over the cell's config label
    config: str = "*"
    #: total firings allowed across every process sharing the spool
    times: int = 1
    #: ``hang`` action: how long to sleep
    hang_s: float = 60.0
    #: ``raise`` action: exception message (stable, so two firings
    #: look deterministic to the executor's quarantine rule)
    message: str = "injected fault"
    #: ``corrupt`` action: seed of the deterministic byte flips
    seed: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.times < 1:
            raise ValueError("a fault must fire at least once: times >= 1")

    def matches(self, site: str, program: str, config: str) -> bool:
        """Does this spec target the given site/cell?"""
        return (
            self.site == site
            and fnmatch(program, self.program)
            and fnmatch(config, self.config)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A loaded fault plan: the specs plus the claim-spool directory."""

    specs: Tuple[FaultSpec, ...] = ()
    spool: str = ""
    path: str = field(default="", compare=False)

    def fired(self, index: int) -> int:
        """How many budget claims spec *index* has burned so far."""
        spec = self.specs[index]
        return sum(
            1
            for k in range(spec.times)
            if os.path.exists(self._claim_path(index, k))
        )

    def _claim_path(self, index: int, k: int) -> str:
        return os.path.join(self.spool, f"fault-{index}-{k}.fired")

    def claim(self, index: int) -> bool:
        """Atomically claim one firing of spec *index*; ``False`` when
        the budget is exhausted.  Safe across concurrent processes."""
        spec = self.specs[index]
        os.makedirs(self.spool, exist_ok=True)
        for k in range(spec.times):
            try:
                handle = os.open(
                    self._claim_path(index, k),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except OSError as exc:  # pragma: no cover - non-EEXIST is exotic
                if exc.errno != errno.EEXIST:
                    raise
                continue
            os.write(handle, f"pid={os.getpid()}\n".encode())
            os.close(handle)
            return True
        return False


def write_plan(
    path: str, specs: Sequence[FaultSpec], spool: Optional[str] = None
) -> str:
    """Serialise *specs* as a fault-plan file and return its path.

    *spool* defaults to ``<path>.spool`` next to the plan file; the
    directory is created so claims can be filed immediately.
    """
    spool = spool or path + ".spool"
    os.makedirs(spool, exist_ok=True)
    payload = {
        "schema": PLAN_SCHEMA,
        "spool": spool,
        "faults": [asdict(spec) for spec in specs],
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_plan(path: str) -> FaultPlan:
    """Load a fault-plan file written by :func:`write_plan` (or by
    hand — the format is plain JSON)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    specs = tuple(FaultSpec(**spec) for spec in payload.get("faults", ()))
    spool = payload.get("spool") or path + ".spool"
    return FaultPlan(specs=specs, spool=spool, path=path)


#: (path, mtime_ns) → plan cache so per-cell fire() calls stay cheap
_PLAN_CACHE: Dict[Tuple[str, int], FaultPlan] = {}


def active_plan() -> Optional[FaultPlan]:
    """The armed plan named by ``REPRO_FAULTS``, or ``None``."""
    path = os.environ.get(FAULTS_ENV_VAR)
    if not path:
        return None
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError:
        return None
    key = (path, mtime)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _PLAN_CACHE[key] = load_plan(path)
    return plan


def corrupt_file(path: str, seed: int = 0, flips: int = 16) -> None:
    """Deterministically flip *flips* bytes of *path* in place.

    The flipped offsets and XOR masks come from ``random.Random(seed)``
    over the file size, so the same seed corrupts the same file the
    same way every run.  Short files are truncated instead, which is
    just as detectable."""
    size = os.path.getsize(path)
    if size < flips * 2:
        with open(path, "r+b") as handle:
            handle.truncate(max(size // 2, 0))
        return
    rng = random.Random(seed)
    offsets = sorted(rng.sample(range(size), flips))
    with open(path, "r+b") as handle:
        for offset in offsets:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ (rng.randrange(255) + 1)]))


def fire(
    site: str,
    program: str = "",
    config: str = "",
    path: Optional[str] = None,
) -> None:
    """Fire any armed faults matching *site* for the given cell.

    A no-op unless ``REPRO_FAULTS`` names a plan with an unspent,
    matching spec.  ``raise`` faults raise :class:`FaultInjectedError`;
    ``hang`` sleeps; ``kill`` SIGKILLs the process; ``corrupt``
    rewrites *path* (skipped when the caller passed no path)."""
    plan = active_plan()
    if plan is None:
        return
    for index, spec in enumerate(plan.specs):
        if not spec.matches(site, program, config):
            continue
        if spec.action == "corrupt" and path is None:
            continue
        if not plan.claim(index):
            continue
        if spec.action == "raise":
            raise FaultInjectedError(
                f"{spec.message} [site={site} program={program} config={config}]"
            )
        if spec.action == "hang":
            time.sleep(spec.hang_s)
        elif spec.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.action == "corrupt":
            corrupt_file(path, seed=spec.seed)


def plan_summary(plan: FaultPlan) -> List[Dict[str, Any]]:
    """Spec-by-spec ``fired/times`` accounting (for logs and tests)."""
    return [
        {**asdict(spec), "fired": plan.fired(index)}
        for index, spec in enumerate(plan.specs)
    ]
