import pytest

from draftrag.mock_server import MockLMServer


@pytest.fixture
def mock_server():
    with MockLMServer() as server:
        yield server


@pytest.fixture
def server_factory():
    """Start any number of mock servers; all are stopped on teardown."""
    servers = []

    def make(script=None):
        server = MockLMServer(script=script).start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.stop()
