#include "support/RunReport.hpp"

#if !defined(PICOEVAL_GIT_DESCRIBE)
#define PICOEVAL_GIT_DESCRIBE "unknown"
#endif

const char pico::support::detail::buildDescribe[64] = PICOEVAL_GIT_DESCRIBE;
