"""Code mutations that the descent checks must catch.

Each test applies one deliberate defect to the library with ``monkeypatch``
and asserts that a small campaign no longer passes, naming the laws that
fail (mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).  A mutation that no law catches
would mark a shortcut the checks cannot see.
"""

from endokit.ambient import Ambient
from endokit.campaign import CampaignSpec, run_campaign


def test_wrongly_keyed_ambient_memo(monkeypatch):
    """An ``Ambient`` memo keyed by the first member of each tuple key hands
    one Levi's or one twist's center, absorbed blocks and volume to every
    other: every law that reads the ``Ambient`` fails somewhere at rank 3."""
    original = Ambient._cached

    def wrongly_keyed(self, key, build):
        return original(self, key[0] if isinstance(key, tuple) else key, build)

    monkeypatch.setattr(Ambient, "_cached", wrongly_keyed)
    rep = run_campaign(CampaignSpec(max_rank=3, suites=("descent",)))
    assert {r.check for r in rep.failures()} == {
        "pushed-group",
        "instable-coefficient",
        "stable-coefficient",
        "coefficient-ratio",
        "transverse-volumes-match",
        "long-short-closed-form",
        "final-identity",
        "center-product-law",
        "stable-map-injective",
        "stable-map-bijective",
        "instable-map-surjective",
        "instable-fiber-law",
        "section-inverts-pushforward",
        "entry-count",
    }
