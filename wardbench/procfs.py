"""CPU time and peak memory of a process tree, read from ``/proc``."""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("ascii", "replace")
    # The command name may hold spaces and parentheses: split after it.
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue                     # exited while we looked
        children.setdefault(parent, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pid: int) -> float:
    """user + system CPU of one process (all its threads)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICKS


def tree_cpu_seconds(root: int) -> float:
    total = 0.0
    for pid in process_tree(root):
        try:
            total += cpu_seconds(pid)
        except OSError:
            pass
    return total


def peak_rss_mb(pid: int) -> float:
    """VmHWM of one process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def tree_peak_rss_mb(root: int) -> float:
    total = 0.0
    for pid in process_tree(root):
        try:
            total += peak_rss_mb(pid)
        except OSError:
            pass
    return total


def udp_rcvbuf_errors() -> int:
    """Host-wide count of UDP datagrams dropped for a full receive buffer."""
    with open("/proc/net/snmp", "r", encoding="ascii") as handle:
        rows = [line.split() for line in handle if line.startswith("Udp:")]
    header, values = rows[0], rows[1]
    return int(values[header.index("RcvbufErrors")])
