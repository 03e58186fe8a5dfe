import nashtoric


def test_public_names_resolve_once():
    names = nashtoric.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(nashtoric, name), name
