"""References, output checking, memo counts, hash seeds and the layer split."""

import json
import time

import pytest

from perfbench import layers, workloads
from perfbench.make_refs import build_refs
from perfbench.run import child_env, run_worker, summarize
from perfbench.worker import run
from perfbench.workloads import FLOWS_REF, REFS, VERIFY_REF, WORKLOADS, check_flows, load_refs


def test_references_agree_across_routes():
    # build_refs raises unless step(flow(m)) == flow(m + 2) for every m.
    assert build_refs() == load_refs()


def test_corrupted_flow_reference_is_a_failure():
    from cckp import hierarchy

    refs = load_refs()
    expected = {"t_3": dict(refs["flows"]["t_3"])}
    outputs = {"t_3": hierarchy.flow(3)}
    assert check_flows(outputs, expected) == (expected, [])
    expected["t_3"]["q_t"] += " + q"
    _, failures = check_flows(outputs, expected)
    assert failures == ["t_3: canonical form differs from the reference"]


def test_corrupted_verify_reference_raises_failed_frac(tmp_path, monkeypatch):
    (tmp_path / FLOWS_REF).write_text((REFS / FLOWS_REF).read_text())
    ref = json.loads((REFS / VERIFY_REF).read_text())
    ref["checks"][3]["residuals"] = [{"label": "x", "value": "q"}]
    (tmp_path / VERIFY_REF).write_text(json.dumps(ref))
    monkeypatch.setattr(workloads, "REFS", tmp_path)
    report = run("verify", time.monotonic(), 1, False)
    report["traced"] = False
    result, diagnostics = summarize([report], False)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert diagnostics["failed_frac"] == 1 / result["attempted"] > 0


def test_memo_tables_are_read_not_written(monkeypatch):
    from cckp import diffring, hierarchy

    hierarchy.flow(3)
    first = layers.memo_snapshot()
    assert layers.memo_snapshot() == first
    assert first["nf_atom"] == len(diffring._NF_ATOM_CACHE)
    monkeypatch.delattr(diffring, "_NF_ATOM_CACHE")
    renamed = layers.memo_snapshot()
    assert renamed["nf_atom"] is None
    metrics, absent = layers.memo_delta(first, renamed)
    assert absent == ["nf_atom"]
    assert metrics["diffring.memo.nf_atom_new"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_and_memo_counts_do_not_depend_on_hash_seed(workload):
    a = run_worker(workload, child_env(0), 1, False)
    b = run_worker(workload, child_env(7), 1, False)
    assert a["failed"] == b["failed"] == 0
    assert a["digest"] == b["digest"]
    assert a["memo_after"] == b["memo_after"]
    assert a["memo"] == b["memo"]


def _ring_s(m):
    return m["diffring.mul.self_s"] + m["diffring.add.self_s"] + m["diffring.d_x.self_s"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_checks_outputs_and_shows_the_layer_split(workload, env):
    report = run_worker(workload, env, 1, True)
    assert report["failed"] == 0 and report["trace_missing"] == []
    m, wall = report["layers"], report["walls_raw"][0]
    memo = report["memo"]
    if workload == "generator":
        assert m["diffring.integrate.calls"] == 0
        assert m["hierarchy.flow.calls"] == 6 and m["hierarchy.flow.t11_s"] > 0
        assert _ring_s(m) > 0.5 * wall
    elif workload == "recursion":
        assert m["psido.compose.calls"] == 0
        assert m["recursion.step.calls"] == 5 and m["recursion.step.t9_s"] > 0
        assert m["diffring.integrate.self_s"] > 0.5 * wall
        assert memo["diffring.memo.nf_atom_new"] > 0
    elif workload == "recursion-warm":
        assert memo["diffring.memo.nf_atom_new"] == 0
        assert memo["diffring.memo.reducer_new"] == 0
        assert memo["diffring.memo.local_reducer_misses"] == 0
    else:
        assert m["recursion.identities.self_s"] > 0
        assert m["psido.adjoint.calls"] > 0 and m["nonlocal_ops.expand_to_psido.calls"] > 0
    assert all(v == 0 for k, v in m.items() if k.endswith(".errors"))
