"""The package's export list: every name resolves, once, and test-only helpers stay out."""

import xqmetro


def test_every_exported_name_resolves():
    for name in xqmetro.__all__:
        assert hasattr(xqmetro, name), name


def test_export_list_has_no_duplicates():
    assert len(set(xqmetro.__all__)) == len(xqmetro.__all__)


def test_single_state_views_and_sld_are_not_exported():
    for name in ("apply_kraus", "apply_channel_compact", "sld_block"):
        assert name not in xqmetro.__all__
        assert not hasattr(xqmetro, name)
