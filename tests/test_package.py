import fsilab


def test_public_names_resolve_once():
    names = fsilab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(fsilab, name)] == []
