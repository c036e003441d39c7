"""Deployments for the benchmark: stores, service processes, sessions.

One :class:`Deployment` is one *side* of a workload -- the Seabed side or
its NoEnc twin -- on one of three shapes:

- ``local``   store-backed table behind ``LocalTransport``, in-process;
- ``remote``  the same store behind ``python -m repro.net.service`` in its
  own OS process, one client connection per session;
- ``sharded`` a table sharded over worker processes that a separate
  service process hosts via ``--sharded``; clients attach with
  ``open_sharded``.  Plain tables cannot be sharded, so the NoEnc twin of
  this shape is a single store behind a service.

With ``in_process=True`` (the traced pass) the service is hosted by
``repro.serve`` inside the benchmark process so timing wrappers see the
service-, coordinator- and server-side calls.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import repro
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine import store as store_mod
from repro.engine.store import disk_bytes

from workloads import MASTER_KEY, SAMPLES, TABLE, Workload, schema

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TOKEN = "perf-bench-token"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- /proc accounting --------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            data = fh.read()
    except OSError:
        return None
    # Fields after the parenthesised command name; [0] is the state.
    return data[data.rindex(")") + 2:].split()


def _pids_where(field: int, value: int) -> list[int]:
    """Live (non-zombie) processes whose stat field (1 = ppid, 2 = pgrp)
    equals ``value``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields and fields[0] != "Z" and int(fields[field]) == value:
                pids.append(int(entry))
    return pids


def group_pids(pgid: int) -> list[int]:
    return _pids_where(2, pgid)


def child_pids(ppid: int) -> list[int]:
    return _pids_where(1, ppid)


def cpu_seconds(pids: list[int]) -> float:
    """user+sys CPU of other processes, from ``/proc/<pid>/stat``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


# -- service processes -------------------------------------------------------


class ServiceProcess:
    """``python -m repro.net.service`` as the leader of its own session, so
    its forked shard workers can be stopped (and counted) as one group."""

    def __init__(self, scratch: str, tag: str, flag: str, path: str):
        """``flag`` is ``--store`` or ``--sharded``; ``path`` what it hosts."""
        info = os.path.join(scratch, f"service-{tag}.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.service", flag, path,
             "--grant", f"bench:{TOKEN}", "--info-file", info],
            env=env, stdout=subprocess.DEVNULL, start_new_session=True,
        )
        deadline = time.monotonic() + 60
        address = None
        while address is None:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"service exited with code {self.proc.returncode} before binding"
                )
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("service did not bind within 60 s")
            try:
                with open(info, encoding="utf-8") as fh:
                    address = json.load(fh)
            except (OSError, ValueError):
                time.sleep(0.01)
        self.address = (address["host"], address["port"])

    def pids(self) -> list[int]:
        return group_pids(self.proc.pid)

    def stop(self) -> None:
        """SIGINT for a clean shutdown, then kill the whole group: a
        service that dies any other way orphans its shard workers."""
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while group_pids(pgid):
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"processes {group_pids(pgid)} of service group {pgid} "
                    "survived SIGKILL"
                )
            time.sleep(0.02)


# -- deployments -------------------------------------------------------------


def _session(mode: str, storage_dir: str | None = None) -> SeabedSession:
    return SeabedSession(
        master_key=MASTER_KEY, mode=mode, prf_backend="aes-ni",
        cluster=SimulatedCluster(ClusterConfig(storage_dir=storage_dir)),
    )


def release_maps(store_path: str) -> None:
    """Drop this process's cached readers of a store it is done with.

    ``engine.store`` caches every opened ``StoreReader`` -- and its memory
    maps, one file descriptor per column file, ~550 per Seabed store here
    -- for the life of the process, keyed by path; closing the session
    does not release them (known issue, see README).  A run opens a few
    dozen stores (set-ups, per-round copies), so without this it runs out
    of descriptors.  The evict hook is private; if a later change removes
    it, it has presumably fixed the leak too.
    """
    evict = getattr(store_mod, "_evict_cached", None)
    if evict is not None:
        evict(store_path)


@dataclass
class Deployment:
    mode: str
    sessions: list[SeabedSession]
    store_paths: list[str]
    service: ServiceProcess | None = None
    handle: object | None = None  # in-process repro.serve handle
    owned_copy: str | None = None  # store copy to delete on close

    def other_pids(self) -> list[int]:
        """Processes serving this side other than the benchmark itself."""
        if self.service is not None:
            return self.service.pids()
        if self.handle is not None:
            return child_pids(os.getpid())  # in-process fleet: forked workers
        return []

    def stored_bytes(self) -> int:
        return sum(disk_bytes(p) for p in self.store_paths)

    def close(self) -> None:
        while self.sessions:
            self.sessions.pop().close()
        for path in self.store_paths:
            release_maps(path)
        if self.owned_copy is not None:
            shutil.rmtree(self.owned_copy, ignore_errors=True)
        if self.handle is not None:
            self.handle.stop()
        if self.service is not None:
            self.service.stop()
        gc.collect()  # sessions sit in reference cycles; free their maps now


def build_store(columns: dict, mode: str, root: str, partitions: int) -> str:
    """Plan, encrypt and persist one table; returns the store path."""
    writer = _session(mode, storage_dir=root)
    writer.create_plan(schema(), SAMPLES)
    writer.upload(TABLE, columns, num_partitions=partitions)
    path = writer.save_table(TABLE)
    writer.close()
    return path


def build_sharded(columns: dict, root: str, shards: int) -> str:
    """Shard, encrypt and persist one table; returns the sharded root."""
    writer = _session("seabed", storage_dir=root)
    writer.create_plan(schema(), SAMPLES)
    table = writer.shard_table(TABLE, "user", num_shards=shards, replicas=1)
    writer.upload(TABLE, columns)
    path = table.root
    writer.close()
    return path


def attach_local(store: str, mode: str) -> Deployment:
    session = _session(mode)
    session.open_table(store)
    return Deployment(mode=mode, sessions=[session], store_paths=[store])


def deploy(workload: Workload, mode: str, scratch: str, tag: str,
           in_process: bool = False) -> Deployment:
    """Stand up one side of ``workload`` under ``scratch/tag``."""
    spec, columns = workload.spec, workload.columns
    root = os.path.join(scratch, tag)
    os.makedirs(root)
    sharded = spec.deployment == "sharded" and mode == "seabed"
    if sharded:
        path = build_sharded(columns, root, spec.shards)
        store_paths = [
            os.path.join(path, node) for node in sorted(os.listdir(path))
            if node.startswith("node-")
        ]
    else:
        path = build_store(columns, mode, root, workload.partitions)
        store_paths = [path]
    if spec.deployment == "local":
        return attach_local(path, mode)

    service = handle = None
    if in_process:
        handle = repro.serve(**{"sharded" if sharded else "stores": [path]})
        handle.mint_token("bench", token=TOKEN)
        address = handle.address
    else:
        service = ServiceProcess(
            root, tag, "--sharded" if sharded else "--store", path
        )
        address = service.address
    deployment = Deployment(
        mode=mode, sessions=[], store_paths=store_paths,
        service=service, handle=handle,
    )
    try:
        for _ in range(spec.clients):
            session = repro.connect(
                address, TOKEN, master_key=MASTER_KEY, mode=mode,
                prf_backend="aes-ni",
            )
            deployment.sessions.append(session)
            if sharded:
                session.open_sharded(path)
            else:
                session.open_table(path)
    except BaseException:
        deployment.close()
        raise
    return deployment


def fresh_copy(base: Deployment, scratch: str, tag: str) -> Deployment:
    """ingest-mixed: a private copy of the base store for one round, so
    every round appends to the same starting state."""
    target = os.path.join(scratch, tag)
    shutil.copytree(base.store_paths[0], target)
    copy = attach_local(target, base.mode)
    copy.owned_copy = target
    return copy
