/**
 * @file
 * ScopedEnv: setenv for one scope. The environment knobs a test sets
 * (XPS_BATCH, XPS_SURROGATE, ...) are restored when it leaves the
 * scope, so env-driven tests cannot leak state into each other.
 */

#ifndef XPS_TESTS_SCOPED_ENV_HH
#define XPS_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <string>

namespace xps::test
{

struct ScopedEnv
{
    std::string key;
    bool had;
    std::string old;
    ScopedEnv(const char *k, const char *v) : key(k)
    {
        const char *o = ::getenv(k);
        had = o != nullptr;
        if (o)
            old = o;
        ::setenv(k, v, 1);
    }
    ~ScopedEnv()
    {
        if (had)
            ::setenv(key.c_str(), old.c_str(), 1);
        else
            ::unsetenv(key.c_str());
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;
};

} // namespace xps::test

#endif // XPS_TESTS_SCOPED_ENV_HH
