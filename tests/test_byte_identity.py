"""Every request of the byte-identity corpus gives the output it was
recorded with; see byte_identity.py for the list and how to rewrite it."""

import byte_identity


def test_corpus_lists_every_request():
    assert [argv for argv, _ in byte_identity.load()] == list(byte_identity.requests())


def test_every_request_gives_its_recorded_bytes():
    changed = [
        " ".join(argv)
        for argv, want in byte_identity.load()
        if byte_identity.digest(argv) != want
    ]
    assert not changed, f"{len(changed)} requests changed output:\n" + "\n".join(changed)
