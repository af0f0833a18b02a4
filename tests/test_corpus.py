import corpus


def test_corpus_decisions_unchanged():
    """Every int, bool and string of the corpus outputs, statuses, omitted lines and
    error messages included, is as kept in corpus_digests.json.  Building the corpus
    writes each JSON output with no fallback for a value that is not JSON, so a
    stray numpy scalar or array in a report fails here too."""
    found = corpus.digests()
    assert len(found) == 23 + 275 + 72
    assert corpus.mismatches(found, corpus.load(), 0) == []
