#include "util/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace xps
{

void
parallelFor(size_t count, int threads,
            const std::function<void(size_t)> &fn)
{
    const size_t workers =
        std::min(count, static_cast<size_t>(std::max(threads, 1)));
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error; // the first exception any call threw
    auto drain = [&] {
        try {
            for (size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1))
                fn(i);
        } catch (...) {
            next.store(count); // no thread claims another index
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (size_t t = 1; t < workers; ++t)
        pool.emplace_back(drain);
    drain();
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace xps
