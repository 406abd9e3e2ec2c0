"""Unit tests for per-tenant cost ledgers and fair-share feedback."""

import asyncio

import pytest

from repro.circuits import library
from repro.service import CostLedger, RuntimeService


def run(coro):
    return asyncio.run(coro)


def measured_bell():
    circuit = library.bell_pair()
    circuit.measure_all()
    return circuit


class TestCostLedger:
    def test_charge_accumulates_and_persists(self, tmp_path):
        ledger = CostLedger(cache_dir=str(tmp_path))
        assert ledger.durable
        ledger.charge("alice", 1024, 0.5)
        ledger.charge("alice", 1024, None)  # unpriced shots still count
        spend = ledger.spend("alice")
        assert spend["shots"] == 2048
        assert spend["cost_s"] == 0.5
        assert spend["jobs"] == 2
        reloaded = CostLedger(cache_dir=str(tmp_path))
        assert reloaded.spend("alice")["shots"] == 2048
        assert reloaded.spend("bob") is None

    def test_single_tenant_keeps_configured_weight(self):
        ledger = CostLedger()
        ledger.charge("alice", 10_000, 10.0)
        assert ledger.effective_weight("alice", 4) == 4

    def test_heavy_spender_weighted_down_light_up(self):
        ledger = CostLedger()
        ledger.charge("heavy", 100_000, 100.0)
        ledger.charge("light", 1_000, 1.0)
        base = 4
        heavy = ledger.effective_weight("heavy", base)
        light = ledger.effective_weight("light", base)
        assert heavy < base <= light
        # Clamped: never to zero, never beyond 4x the base.
        assert 1 <= heavy and light <= base * 4

    def test_scale_free_ratio(self):
        before, after = CostLedger(), CostLedger()
        for name, shots in (("a", 100), ("b", 300)):
            before.charge(name, shots)
            after.charge(name, shots * 1000)  # everyone 1000x busier
        assert before.effective_weight("a", 2) == after.effective_weight("a", 2)
        assert before.effective_weight("b", 2) == after.effective_weight("b", 2)

    def test_shots_metric_until_costs_measured(self):
        ledger = CostLedger()
        ledger.charge("a", 100)
        ledger.charge("b", 400)
        weight_by_shots = ledger.effective_weight("b", 4)
        assert weight_by_shots < 4
        # Once any tenant has measured cost, seconds become the metric:
        # only 'a' has cost_s, so 'b' counts as having no spend at all.
        ledger.charge("a", 0, 2.0)
        assert ledger.effective_weight("b", 4) == 4  # one measured tenant


class TestServiceAccounting:
    def test_settled_jobs_charge_the_ledger(self, tmp_path):
        async def live():
            service = RuntimeService(cache_dir=str(tmp_path))
            token = service.register_client("alice", weight=2)
            job = await service.submit(
                measured_bell(), "statevector", shots=300, seed=1, token=token
            )
            await job.wait()
            await service.drain()
            # Settlement journaling runs off-loop; poll for the charge.
            stats = service.stats()
            for _ in range(200):
                if stats["accounting"].get("alice"):
                    break
                await asyncio.sleep(0.02)
                stats = service.stats()
            await service.close()
            return stats

        stats = run(live())
        assert stats["accounting"]["alice"]["shots"] == 300
        assert stats["accounting"]["alice"]["jobs"] == 1
        # And it persisted alongside the journal.
        assert CostLedger(cache_dir=str(tmp_path)).spend("alice")["shots"] == 300

    def test_charge_is_the_measured_chunk_time(self):
        """The ledger bills what the jobs measured: a dedupe twin that
        re-samples its primary's distribution adds no seconds."""
        async def live():
            service = RuntimeService(journal=False, accounting=CostLedger())
            token = service.register_client("alice")
            circuit = measured_bell()
            job = await service.submit(
                [circuit, circuit], "statevector", shots=256, seed=4,
                token=token,
            )
            await job.wait()
            for _ in range(500):
                if service.accounting.spend("alice"):
                    break
                await asyncio.sleep(0.01)
            spend = service.accounting.spend("alice")
            await service.close()
            return spend, job.batch._jobset

        spend, jobset = run(live())
        assert spend["shots"] == 512
        assert jobset[1].time_taken == 0.0  # the twin ran nothing
        assert spend["cost_s"] == jobset.time_taken > 0

    @pytest.mark.parametrize("option", ["schedule", "cost_model"])
    def test_retired_options_rejected(self, option):
        with pytest.raises(TypeError, match=option):
            RuntimeService(**{option: None})

    def test_cost_weighted_shares_rebalance_scheduler(self, tmp_path):
        async def live():
            service = RuntimeService(
                cache_dir=str(tmp_path), cost_weighted_shares=True
            )
            heavy = service.register_client("heavy", weight=2)
            light = service.register_client("light", weight=2)
            for _ in range(3):
                job = await service.submit(
                    measured_bell(), "statevector", shots=4096, seed=1,
                    token=heavy,
                )
                await job.wait()
            job = await service.submit(
                measured_bell(), "statevector", shots=16, seed=1, token=light
            )
            await job.wait()
            await service.drain()
            service.resume()  # drain() closes admissions; re-open them
            # One more settlement after both ledgers have spend, so the
            # feedback sees two tenants.
            job = await service.submit(
                measured_bell(), "statevector", shots=4096, seed=2,
                token=heavy,
            )
            await job.wait()
            await service.drain()
            # The charge lands off-loop in the default executor; poll
            # rather than guessing a sleep.
            weights = {}
            for _ in range(200):
                weights = service.stats()["scheduler_weights"]
                if weights.get("heavy", 2) < 2:
                    break
                await asyncio.sleep(0.02)
            await service.close()
            return weights

        weights = run(live())
        assert weights["heavy"] < 2  # nudged down from its base weight
