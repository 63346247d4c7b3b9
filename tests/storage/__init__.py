class RawCodec:
    """Identity page codec: pages whose objects already are ``bytes``."""

    def encode(self, obj: bytes) -> bytes:
        return bytes(obj)

    def decode(self, data: bytes) -> bytes:
        return bytes(data)
