#include "rpc/rpc_server.h"

template class juggler::net::LoopServer<juggler::rpc::RpcCodec>;
