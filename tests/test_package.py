import allocore


def test_all_names_resolve_without_duplicates():
    assert len(set(allocore.__all__)) == len(allocore.__all__)
    for name in allocore.__all__:
        assert getattr(allocore, name) is not None, name
