"""Structure-agnostic product caching: corner memories, subset multicasts."""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest

from matcache.model import ProblemInstance, SchemeParameterError, run_scheme
from matcache.schemes.agnostic import AgnosticConfig, corner_memory, product_pairs


def test_product_pairs_counts_unordered_demands():
    assert product_pairs(2) == [(1, 1), (1, 2), (2, 2)]
    assert len(product_pairs(4)) == 10
    assert len(product_pairs(20)) == 210


def test_corner_memories_tall_ratio():
    inst = ProblemInstance(K=2, N=4, s=10, r=2, M=F(1))
    # g/a = 1/5 at a = 1/5: ten product-files, each B/(s r) = 1/5 matrix units
    assert corner_memory(inst, 0) == 0
    assert corner_memory(inst, 1) == F(1)
    assert corner_memory(inst, 2) == F(2)


def test_zero_memory_corner_unicasts_every_demand():
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(0))
    result = run_scheme("agnostic", inst, AgnosticConfig(t=0), seed=0)
    assert result.verified
    assert result.report.total_payload_symbols == 2 * inst.B  # one product each
    assert result.report.load == F(2)


def test_middle_corner_single_multicast():
    inst = ProblemInstance(K=2, N=4, s=10, r=2, M=F(1))
    result = run_scheme("agnostic", inst, AgnosticConfig(t=1), seed=1)
    assert result.verified
    assert result.report.total_payload_symbols == 2  # one message of B/2 symbols
    assert result.report.load == F(1, 2)
    assert len(result.transcript.messages) == 1


def test_full_memory_corner_transmits_nothing():
    inst = ProblemInstance(K=2, N=4, s=10, r=2, M=F(2))
    result = run_scheme("agnostic", inst, AgnosticConfig(t=2), seed=2)
    assert result.verified
    assert result.report.total_payload_symbols == 0


def test_non_corner_memory_rejected_with_target():
    inst = ProblemInstance(K=2, N=4, s=10, r=2, M=F(2))
    with pytest.raises(SchemeParameterError) as err:
        run_scheme("agnostic", inst, AgnosticConfig(t=1), seed=0)
    assert any("corner" in problem for problem in err.value.problems)


def test_subfile_divisibility_rejected():
    inst = ProblemInstance(K=3, N=2, s=10, r=2, M=F(2, 5))
    with pytest.raises(SchemeParameterError) as err:
        run_scheme("agnostic", inst, AgnosticConfig(t=2), seed=0)
    assert any("divis" in problem for problem in err.value.problems)


def test_transcript_regenerates_identically():
    inst = ProblemInstance(K=2, N=4, s=10, r=2, M=F(1))
    first = run_scheme("agnostic", inst, AgnosticConfig(t=1), seed=7)
    second = run_scheme("agnostic", inst, AgnosticConfig(t=1), seed=7)
    assert first.transcript.digest() == second.transcript.digest()


def test_decoder_keeps_the_recovered_packet_without_a_copy(monkeypatch):
    from matcache.schemes import agnostic

    decode_file, decompress_product = agnostic.decode_file, agnostic.decompress_product
    recovered, kept = [], []

    def recording_decode_file(*args):
        recovered.append(decode_file(*args))
        return recovered[-1]

    def recording_decompress(cp):
        kept.append(cp.packet)
        return decompress_product(cp)

    monkeypatch.setattr(agnostic, "decode_file", recording_decode_file)
    monkeypatch.setattr(agnostic, "decompress_product", recording_decompress)
    inst = ProblemInstance(K=2, N=4, s=10, r=2, M=F(1))
    assert run_scheme("agnostic", inst, AgnosticConfig(t=1), seed=1).verified
    assert len(kept) == len(recovered) == 2
    assert all(np.shares_memory(packet, file) for packet, file in zip(kept, recovered))


@pytest.mark.parametrize("q", [2, (1 << 31) - 1, (1 << 61) - 1])
@pytest.mark.parametrize("K, N, s, r, t", [(2, 4, 10, 2, 1), (2, 5, 8, 4, 1), (4, 6, 12, 6, 2)])
def test_place_compresses_every_product_in_one_stack(q, K, N, s, r, t, monkeypatch):
    """The N(N+1)/2 products share one shape, so place compresses them in
    one compress_stack and none alone; deliver finds every demanded one in
    the run's memo."""
    from matcache import compress
    from matcache.field import FieldSpec

    calls = []
    for name in ("compress_stack", "_compress_factors"):
        def spy(*args, original=getattr(compress, name), name=name):
            calls.append((name, args[0].shape if name == "compress_stack" else None))
            return original(*args)

        monkeypatch.setattr(compress, name, spy)
    M = corner_memory(ProblemInstance(K=K, N=N, s=s, r=r, M=F(0)), t)
    inst = ProblemInstance(K=K, N=N, s=s, r=r, field=FieldSpec(q), M=M)
    result = run_scheme("agnostic", inst, AgnosticConfig(t=t), seed=3)
    assert result.verified
    ((name, shape),) = calls
    assert name == "compress_stack" and shape[1:] == (r, r)
    assert shape[0] == len(product_pairs(N)) or q == 2  # over GF(2) products may repeat
