import io
import math

import pytest
from hypothesis import given, strategies as st

from tiersim.workload import (ADDR_SPACE, MESSAGE_HEADER, TRACE_HEADER,
                              MessageRecord, TraceParseError, TraceRecord,
                              gen_message_traffic, gen_synthetic_trace,
                              parse_messages, parse_trace, parse_trace_line,
                              write_messages, write_trace)


def test_parse_trace_line_example():
    rec = parse_trace_line("100,2,R,0x1f40,8", 1)
    assert rec == TraceRecord(100, 2, "R", 0x1F40, 8)


def test_comments_and_blanks_skipped():
    assert parse_trace_line("# comment", 1) is None
    assert parse_trace_line("   ", 2) is None


def test_bad_op_rejected():
    with pytest.raises(TraceParseError) as err:
        parse_trace_line("100,2,X,0x1f40,8", 7)
    assert "line 7" in str(err.value)


def test_malformed_fields_report_line_numbers():
    for bad in ("1,2,R,0x10", "a,2,R,0x10,8", "1,2,R,16,8", "1,2,R,0x10,0"):
        with pytest.raises(TraceParseError):
            parse_trace_line(bad, 3)


def test_trace_header_required():
    with pytest.raises(TraceParseError):
        parse_trace(io.StringIO("100,2,R,0x1f40,8\n"))
    records = parse_trace(io.StringIO(f"# intro\n{TRACE_HEADER}\n100,2,R,0x1f40,8\n"))
    assert len(records) == 1


record_st = st.builds(
    TraceRecord,
    tick=st.integers(0, 10**9),
    core=st.integers(0, 255),
    op=st.sampled_from(["R", "W"]),
    addr=st.integers(0, 2**48 - 1),
    size=st.integers(1, 64),
)


@given(st.lists(record_st, max_size=50))
def test_trace_roundtrip_identity(records):
    buf = io.StringIO()
    write_trace(records, buf)
    buf.seek(0)
    assert parse_trace(buf) == records


def test_message_roundtrip_and_validation():
    records = [MessageRecord(0, 1, 2, 64), MessageRecord(5, 0, 3, 256)]
    buf = io.StringIO()
    write_messages(records, buf)
    buf.seek(0)
    assert parse_messages(buf) == records
    with pytest.raises(TraceParseError):
        parse_messages(io.StringIO(f"{MESSAGE_HEADER}\n1,2,2,64\n"))
    with pytest.raises(TraceParseError):
        parse_messages(io.StringIO(f"{MESSAGE_HEADER}\n1,2,3,0\n"))


def test_degenerate_hot_set_pins_one_block():
    trace = gen_synthetic_trace(cores=1, length=500, hot_fraction=1.0,
                                hot_set_bytes=64, seed=9)
    assert {r.addr // 64 for r in trace} == {0}


def test_measured_hot_fraction_within_3_sigma():
    p = 0.9
    n = 10**5
    trace = gen_synthetic_trace(cores=1, length=n, hot_fraction=p,
                                hot_set_bytes=4096, seed=17)
    hot = sum(1 for r in trace if r.addr < 4096)
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hot - n * p) <= 3 * sigma
    assert 0.89 <= hot / n <= 0.91


def test_trace_generator_deterministic():
    a = gen_synthetic_trace(4, 200, 0.9, 1024, seed=5)
    b = gen_synthetic_trace(4, 200, 0.9, 1024, seed=5)
    c = gen_synthetic_trace(4, 200, 0.9, 1024, seed=6)
    assert a == b
    assert a != c


def test_hot_sets_disjoint_by_default():
    trace = gen_synthetic_trace(cores=4, length=300, hot_fraction=1.0,
                                hot_set_bytes=1024, seed=3)
    for rec in trace:
        window = rec.addr // 1024
        assert window == rec.core


def test_hot_overlap_directs_to_shared_window():
    trace = gen_synthetic_trace(cores=2, length=2000, hot_fraction=1.0,
                                hot_set_bytes=1024, seed=3, hot_overlap=1.0)
    shared_base = 2 * 1024
    assert all(shared_base <= r.addr < shared_base + 1024 for r in trace)


def test_ticks_non_decreasing_per_core():
    trace = gen_synthetic_trace(4, 500, 0.5, 4096, seed=1, tick_interval=3)
    last = {}
    for rec in trace:
        assert rec.tick >= last.get(rec.core, 0)
        last[rec.core] = rec.tick


def test_read_write_mix_default_two_to_one():
    trace = gen_synthetic_trace(1, 30000, 0.5, 4096, seed=2)
    reads = sum(1 for r in trace if r.op == "R")
    assert abs(reads / len(trace) - 2 / 3) < 0.01


def test_message_traffic_zero_rate_empty():
    assert gen_message_traffic(8, 1000, 0.0, 64, seed=1) == []


def test_message_traffic_counts_binomial_3_sigma():
    clusters, cycles, rate = 16, 2000, 0.01
    n = clusters * cycles
    sigma = math.sqrt(n * rate * (1 - rate))
    for seed in range(10):
        msgs = gen_message_traffic(clusters, cycles, rate, 64, seed=seed)
        assert abs(len(msgs) - n * rate) <= 3 * sigma
        for m in msgs:
            assert m.src_cluster != m.dst_cluster
            assert 0 <= m.dst_cluster < clusters


def test_message_traffic_deterministic():
    a = gen_message_traffic(8, 500, 0.05, 32, seed=11)
    b = gen_message_traffic(8, 500, 0.05, 32, seed=11)
    assert a == b


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        gen_synthetic_trace(1, 10, 1.5, 64, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic_trace(1, 10, 0.5, 0, seed=0)
    with pytest.raises(ValueError):
        gen_message_traffic(4, 10, 2.0, 64, seed=0)
    with pytest.raises(ValueError):
        gen_message_traffic(1, 10, 0.5, 64, seed=0)


@pytest.mark.parametrize("cores, hot_overlap", [(1, 0.0), (3, 0.0), (3, 1.0)])
def test_hot_windows_stay_in_the_address_space(cores, hot_overlap):
    # Every hot window, the shared one included when hot_overlap > 0, must
    # lie below ADDR_SPACE, or the trace would hold addresses that
    # parse_trace_line refuses. At the largest window size the top window
    # ends exactly at ADDR_SPACE; one byte more is refused.
    windows = cores + (hot_overlap > 0)
    most = ADDR_SPACE // windows
    trace = gen_synthetic_trace(cores, 200, 1.0, most, seed=5,
                                hot_overlap=hot_overlap)
    assert max(r.addr for r in trace) >= (windows - 1) * most
    assert all(parse_trace_line(f"{r.tick},{r.core},{r.op},0x{r.addr:x},"
                                f"{r.size}") == r for r in trace)
    with pytest.raises(ValueError, match=f"hot_set_bytes must be at most "
                                         f"{most}, so that {windows} hot "
                                         f"windows fit in the 48-bit"):
        gen_synthetic_trace(cores, 200, 1.0, most + 1, seed=5,
                            hot_overlap=hot_overlap)
