#include "net/http_server.h"

template class juggler::net::LoopServer<juggler::net::HttpCodec>;
