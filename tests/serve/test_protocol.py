"""Unit tests for the repro-serve-v1 wire codec."""

import pytest

from repro.core.job import Job
from repro.serve.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    job_from_wire,
    job_to_wire,
)


class TestFrameCodec:
    def test_round_trip(self):
        frame = {"type": "submit", "jobs": [], "id": 7}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_is_one_line(self):
        assert encode_frame({"type": "tick"}).count(b"\n") == 1

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"[1, 2]\n")
        assert err.value.code == "bad_frame"

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"{nope\n")
        assert err.value.code == "bad_json"

    def test_rejects_missing_type(self):
        with pytest.raises(ProtocolError):
            decode_frame(b'{"jobs": []}\n')


class TestJobCodec:
    def test_round_trip_preserves_everything(self):
        job = Job(color="video", arrival=3, delay_bound=4, uid=99)
        back = job_from_wire(job_to_wire(job), default_arrival=0)
        assert back == job

    def test_tuple_colors_round_trip(self):
        job = Job(color=(1, "a"), arrival=0, delay_bound=2, uid=5)
        back = job_from_wire(job_to_wire(job), default_arrival=0)
        assert back.color == (1, "a")

    def test_arrival_defaults_to_current_round(self):
        job = job_from_wire({"color": 0, "delay_bound": 2}, default_arrival=17)
        assert job.arrival == 17

    def test_non_dict_mapping_is_accepted(self):
        from types import MappingProxyType

        wire = MappingProxyType({"color": 0, "delay_bound": 2, "uid": 7})
        assert job_from_wire(wire, default_arrival=0).uid == 7

    def test_uid_defaults_to_fresh(self):
        a = job_from_wire({"color": 0, "delay_bound": 2}, default_arrival=0)
        b = job_from_wire({"color": 0, "delay_bound": 2}, default_arrival=0)
        assert a.uid != b.uid

    @pytest.mark.parametrize("bad", [
        {"delay_bound": 2},                            # no color
        {"color": 0},                                  # no bound
        {"color": 0, "delay_bound": 0},                # bound < 1
        {"color": 0, "delay_bound": True},             # bool is not an int
        {"color": 0, "delay_bound": 2, "arrival": -1},
        {"color": 0, "delay_bound": 2, "uid": "x"},
        "not an object",
    ])
    def test_invalid_jobs_rejected(self, bad):
        with pytest.raises(ProtocolError) as err:
            job_from_wire(bad, default_arrival=0)
        assert err.value.code == "bad_job"
