#include "protocol/proto_config.hh"

#include <cstdlib>

namespace cenju
{

bool
ProtocolConfig::defaultRuntimeChecks()
{
    if (const char *env = std::getenv("CENJU_CHECK"))
        return env[0] != '\0' && env[0] != '0';
#ifdef CENJU_CHECK
    return true;
#else
    return false;
#endif
}

} // namespace cenju
