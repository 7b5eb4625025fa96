"""The supervised sweep service.

One execution path for every experiment matrix the repo runs — figure
pairs at any worker count, the fault-model ablation, nightly fuzz seed
shards, chaos probes: a FIFO dispatcher over heartbeat-supervised worker
processes with retries, a bounded respawn budget and an in-process tier,
plus a crash-consistent fsynced journal, a sharded content-addressed
cache and the memmapped trace store.  See ``docs/sweep.md`` for the
architecture and recovery semantics.

Submodules (imported directly to keep import-time dependencies narrow —
``journal`` is imported by :mod:`repro.sim.resilience`, so this package
``__init__`` must not pull in the scheduler, which imports the reverse
direction):

* :mod:`repro.sweep.journal` — fenced append-only checkpoint journal
* :mod:`repro.sweep.cache` — sharded content-addressed artifact layout
* :mod:`repro.sweep.tracestore` — the memmapped symbolic-trace store
* :mod:`repro.sweep.tasks` — task model, executors, worker entry
* :mod:`repro.sweep.scheduler` — the supervisor (:class:`SweepService`)
* :mod:`repro.sweep.cli` — ``python -m repro sweep``
"""
