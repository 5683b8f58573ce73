"""Analytic cost models of the panel-broadcast shapes.

Reference HPL ships six broadcast variants because the panel broadcast
sits on the critical path of every stage; the paper's U broadcast
pipelining (Section V-A) exists for the same reason. The distributed
run executes its shapes in :mod:`repro.cluster.panel_bcast`; this module
predicts their completion time for the broadcast ablation benchmark:

* **ring** (HPL's ``1ring``): rank i forwards to i+1; latency scales
  with the group size, but each link carries the payload once — good
  when the broadcast can be overlapped with compute.
* **binomial tree**: log2(size) rounds; the standard latency-optimal
  tree for unsegmented messages.
* **segmented ring** / **ring-mod** (HPL's bandwidth-optimal long
  broadcast): the payload is cut into segments pipelined around the
  ring; for large payloads the cost approaches one payload transfer
  regardless of the group size.
"""

from __future__ import annotations

import math


def bcast_time_model(
    nbytes: float,
    group_size: int,
    bw_gbs: float,
    latency_s: float,
    algorithm: str,
    segments: int = 4,
) -> float:
    """Analytic completion-time models for the three shapes."""
    if group_size < 1:
        raise ValueError("group must be non-empty")
    if nbytes < 0:
        raise ValueError("bytes must be non-negative")
    if group_size == 1:
        return 0.0
    t_msg = latency_s + nbytes / (bw_gbs * 1e9)
    if algorithm == "ring":
        return (group_size - 1) * t_msg
    if algorithm == "binomial":
        return math.ceil(math.log2(group_size)) * t_msg
    if algorithm in ("segmented-ring", "ring-mod"):
        t_seg = latency_s + nbytes / segments / (bw_gbs * 1e9)
        return (group_size - 2 + segments) * t_seg
    raise ValueError(f"unknown broadcast algorithm {algorithm!r}")
