"""Tests for the TCP metrics exposition endpoint."""

import socket
import threading
import time

from repro.obs.export import MetricsExporter
from repro.obs.metrics import MetricsRegistry

TIMEOUT = 5.0


def _http_get(address) -> bytes:
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        sock.settimeout(TIMEOUT)
        data = b""
        while True:
            try:
                piece = sock.recv(4096)
            except socket.timeout:
                break
            if not piece:
                break
            data += piece
    return data


class TestMetricsExporter:
    def test_http_scrape_returns_exposition(self):
        registry = MetricsRegistry()
        registry.counter("polygen_queries_total", "Q.").inc(status="completed")
        with MetricsExporter(registry) as exporter:
            response = _http_get(exporter.address)
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert b"text/plain; version=0.0.4" in response
        assert b'polygen_queries_total{status="completed"} 1' in response

    def test_collectors_refresh_per_scrape(self):
        registry = MetricsRegistry()
        state = {"v": 1}
        registry.add_collector(lambda r: r.gauge("live").set(state["v"]))
        with MetricsExporter(registry) as exporter:
            assert b"live 1" in _http_get(exporter.address)
            state["v"] = 2
            assert b"live 2" in _http_get(exporter.address)

    def test_close_is_idempotent_and_frees_the_port(self):
        registry = MetricsRegistry()
        exporter = MetricsExporter(registry)
        address = exporter.address
        exporter.close()
        exporter.close()
        rebound = MetricsExporter(registry, port=address[1])
        rebound.close()

    def test_close_stops_the_serving_thread(self):
        before = set(threading.enumerate())
        exporter = MetricsExporter(MetricsRegistry())
        began = time.perf_counter()
        exporter.close()
        assert time.perf_counter() - began < 1.0
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name == "metrics-exporter"
        ]
        assert leaked == []
