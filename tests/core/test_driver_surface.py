"""Structural guard: the two deployment shapes share one driver.

``VuvuzelaSystem`` and ``DeploymentLauncher`` once mirrored 21 methods.  They
now subclass :class:`~repro.core.driver.RoundDriver` and may both define only
the seam it declares abstract (11 methods, three of them the one way to make
a link misbehave); callers never ask a driver which shape it is.  The round
lifecycle — open, close, discard, result — is the driver's, through the
entry's control plane: no shape opens or closes a coordinator window itself
or keeps a round counter.
No subprocesses here — this is a sub-second check on the class surface and
the source text.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro import DeploymentLauncher, VuvuzelaSystem
from repro.core.driver import RoundDriver

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: What every class body has, plus the lifecycle dunders both shapes keep.
BOOKKEEPING = {
    "__module__", "__doc__", "__abstractmethods__", "_abc_impl", "__firstlineno__",
    "__static_attributes__", "__init__", "__enter__", "__exit__",
}

#: Once mirrored, now stated once on the shared driver.
HOISTED = {
    "add_client", "remove_client", "park_client", "resume_client", "client",
    "add_session", "attach_ledger", "ledger_client_digests", "_ledger_round_record",
    "protocol", "run_conversation_round", "run_dialing_round", "run_continuous",
    "run_swarm_round", "force_attempts", "scan_invitations",
    "open_scheduled_round", "discard_scheduled_round", "_forget_client", "_round_result",
    "chain_noise", "access_histogram", "invitation_store", "aborted_total",
    "buffered_total", "resubmission_parked", "refused_total", "late_total",
}


def test_both_shapes_define_only_the_declared_seam():
    seam = set(RoundDriver.__abstractmethods__) | set(RoundDriver.__annotations__)
    mirrored = set(vars(VuvuzelaSystem)) & set(vars(DeploymentLauncher))
    assert mirrored - BOOKKEEPING <= seam, sorted(mirrored - BOOKKEEPING - seam)


def test_both_shapes_implement_the_whole_seam():
    for shape in (VuvuzelaSystem, DeploymentLauncher):
        assert issubclass(shape, RoundDriver)
        assert not shape.__abstractmethods__, sorted(shape.__abstractmethods__)
        assert set(RoundDriver.__abstractmethods__) <= set(vars(shape))


def test_the_seam_has_one_chaos_surface():
    """Faults and WAN weather are one link-rule concept: three seam methods,
    not one family per kind of bad network."""
    abstract = set(RoundDriver.__abstractmethods__)
    assert len(abstract) <= 11, sorted(abstract)
    chaos = {name for name in abstract if re.search(r"link|fault|condition|heal|inject", name)}
    assert chaos == {"add_link_rule", "heal_links", "link_stats"}


def test_hoisted_methods_have_one_definition():
    for name in HOISTED:
        assert name in vars(RoundDriver), name
        assert name not in vars(VuvuzelaSystem), name
        assert name not in vars(DeploymentLauncher), name
    assert not hasattr(RoundDriver, "run_session")  # one name: run_continuous


def test_the_entry_owns_the_round_lifecycle():
    """Nothing under ``core/`` opens or closes a coordinator window, or
    allocates round numbers: every round goes through ``control("entry")``."""
    found = []
    for path in sorted((SRC / "core").rglob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(r"coordinator\.(open|close)_round\(|_next_rounds?\b|_round_lock\b", line):
                found.append(f"{path.relative_to(SRC)}:{number}")
    assert found == []


def test_no_caller_sniffs_the_shape():
    """The only ``shape ==`` is the constructor choice in the campaign,
    and nothing probes a driver with ``getattr``."""
    comparisons = []
    probes = []
    for path in sorted(SRC.rglob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            where = f"{path.relative_to(SRC)}:{number}"
            if re.search(r"shape\s*[!=]=", line):
                comparisons.append(where)
            if re.search(r"getattr\(\s*(self\.)?_?(driver|system|launcher|deployment)\b", line):
                probes.append(where)
    assert probes == []
    assert len(comparisons) == 1 and comparisons[0].startswith("runtime/campaign.py:"), comparisons
    source = (SRC / "runtime" / "campaign.py").read_text(encoding="utf-8")
    build = source[source.index("def _build_driver") :]
    assert 'if self.shape == "tcp":' in build[: build.index("\n    def ")]
