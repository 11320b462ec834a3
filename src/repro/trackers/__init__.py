"""Baseline RowHammer trackers and storage models.

Functional trackers: Graphene (Misra-Gries CAM), CRA (DRAM counters +
metadata cache), OCPR (exact per-row), PARA (probabilistic), D-CBF
(dual counting Bloom filters), plus the post-Hydra successors raced in
the arena: CoMeT (count-min sketch), MINT (in-DRAM random sampling),
PTMP (per-bank probabilistic-insertion FIFOs), and START (LLC-resident
escalating counters). Storage-only analytic
models for TWiCE/CAT live in :mod:`repro.trackers.storage` alongside
the Table 1 and Table 5 generators.

Every name below loads its module on first access. The registry
(:mod:`repro.trackers.registry`) imports the registering modules it
needs itself.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.trackers.base": (
        "ActivationTracker",
        "MetaAccess",
        "NullTracker",
        "TrackerResponse",
        "merge_responses",
    ),
    "repro.trackers.cat": ("CatTracker",),
    "repro.trackers.comet": ("CometTracker", "comet_counters_per_hash"),
    "repro.trackers.cra": ("CraTracker", "LineMetadataCache"),
    "repro.trackers.dcbf": ("CountingBloomFilter", "DcbfTracker"),
    "repro.trackers.graphene": ("GrapheneTracker", "graphene_entries_per_bank"),
    "repro.trackers.insecure": ("MrlocTracker", "ProhitTracker"),
    "repro.trackers.mint": ("MintTracker", "mint_interval_slots"),
    "repro.trackers.mithril": ("MithrilTracker",),
    "repro.trackers.ocpr": ("OcprTracker",),
    "repro.trackers.para": ("ParaTracker", "para_probability"),
    "repro.trackers.ptmp": ("PtmpTracker",),
    "repro.trackers.registry": (
        "SECURITY_CLASSES",
        "Param",
        "TrackerContext",
        "TrackerInfo",
        "TrackerSpec",
        "available_trackers",
        "build_tracker",
        "canonical_spec",
        "parse_spec",
        "register_tracker",
        "tracker_info",
    ),
    "repro.trackers.start": ("StartTracker", "start_lines_per_bank"),
    "repro.trackers.twice": ("TwiceTracker",),
    "repro.trackers.storage": (
        "RANK_GEOMETRY",
        "StorageRow",
        "storage_table",
        "total_sram_table",
    ),
})
