"""The catalog and region reports, pinned byte for byte by SHA-256.

The digests were taken from the output before the report writers were
rewritten to state each layout once; a layout change must update them on
purpose.
"""

import hashlib

from sfmlab import io
from sfmlab.cameras import catalog_lookup
from sfmlab.cli import main
from sfmlab.counting import forbidden_region

CATALOG_SHA256 = {
    "table": "94acd9f673e1dffa31ccaf695b97935507c965f74de34b158fcf515c0c2fb52b",
    "json": "ba6fc6715eebcf68ae470a6fe12d0b97ca32399af5c95bd42f448f0d5ed75b89",
    "csv": "03369e42c587b2e1f1d01a78a5f6e743ab28ecaa2130563274bc8d99dfc7658a",
}
# region_csv followed by region_svg of each (class, n_max, m_max) grid
REGION_SHA256 = {
    ("omni-oriented-2d", 1, 1): "3ec16d7fe0264ec4d0bc1654927e11ef4dcdd5b8d63bf93645a7ebd85b19378f",
    ("omni-oriented-2d", 6, 6): "b0da978580b1d5130eddd60343994a07b689e2894483d3bb55257fb36737f0bd",
    ("omni-oriented-2d", 12, 9): "5d284b3f7476f68772f1bb5e52425f6720d0fbb15d973cc2836e309c7b2b2cb5",
    ("line-3d", 1, 1): "80323b38b7a742a0f019ee4fa881cc00c034a77f35a7fb6cf72058832f4c52fe",
    ("line-3d", 6, 6): "cf4a8c522de520f8163ca43d0fdc0a0ab7b30d3a6309d95d388f98d76b8464fe",
    ("line-3d", 12, 9): "3132e45d5073b0611a82dbe6cf05635ef0a970ff210c6881ca786c131f54defd",
    ("perspective-3d", 1, 1): "28cdf7f0efde177217ca3715d856bd14fc5e241767334680d2a7166223d98344",
    ("perspective-3d", 6, 6): "62469af71f7d34e88037848e6016cac2d641b5effd74accfef59c397fe62e9a5",
    ("perspective-3d", 12, 9): "12a5f0e2a9d1ae27cc588dd61bd77304db913156445f44c7282f2ad26df60832",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalog_and_region_reports_are_pinned(capsys):
    changed = []
    for fmt, digest in CATALOG_SHA256.items():
        assert main(["catalog", "--format", fmt]) == 0
        if _sha256(capsys.readouterr().out) != digest:
            changed.append(f"catalog --format {fmt}")
    for (name, n, m), digest in REGION_SHA256.items():
        cls = catalog_lookup(name)
        grid = forbidden_region(cls, n, m)
        if _sha256(io.region_csv(grid) + io.region_svg(grid, cls.name)) != digest:
            changed.append(f"region {name} {n} {m}")
    assert changed == []
