import proofgym


def test_every_exported_name_resolves():
    assert [name for name in proofgym.__all__ if not hasattr(proofgym, name)] == []
    assert len(set(proofgym.__all__)) == len(proofgym.__all__)
