#include "workload/stress_patterns.hh"

#include "sim/rng.hh"

namespace cenju
{

namespace
{

/** Address index of the first word of logical block @p b. */
std::size_t
blockIndex(unsigned b)
{
    return static_cast<std::size_t>(b) * ShmArray::wordsPerBlock;
}

/** A store value unique per (node, op) for value-coherence checks. */
std::uint64_t
serial(NodeId id, std::uint64_t n)
{
    return (std::uint64_t(id) << 32) | (n & 0xffffffffull);
}

Task
sharingHeavy(Env &env, StressWorkload w, ShmArray arr)
{
    Rng rng = Rng(w.seed).split(env.id());
    std::uint64_t count = 0;
    for (unsigned r = 0; r < w.rounds; ++r) {
        for (unsigned i = 0; i < w.opsPerNode; ++i) {
            // Skewed block choice: half the traffic on block 0.
            unsigned b = rng.chance(0.5)
                ? 0
                : unsigned(rng.below(w.blocks));
            if (rng.chance(0.4)) {
                co_await env.putBits(arr, blockIndex(b),
                                     serial(env.id(), ++count));
            } else {
                (void)co_await env.getBits(arr, blockIndex(b));
            }
        }
        co_await env.barrier();
    }
}

Task
migratory(Env &env, StressWorkload w, ShmArray arr)
{
    // Read-modify-write chains: every node walks the blocks from a
    // different start, so exclusive ownership migrates node to node.
    for (unsigned r = 0; r < w.rounds; ++r) {
        for (unsigned i = 0; i < w.opsPerNode; ++i) {
            unsigned b = (env.id() + i + r) % w.blocks;
            std::uint64_t v =
                co_await env.getBits(arr, blockIndex(b));
            co_await env.putBits(arr, blockIndex(b), v + 1);
        }
        co_await env.barrier();
    }
}

Task
producerConsumer(Env &env, StressWorkload w, ShmArray arr)
{
    std::uint64_t count = 0;
    for (unsigned r = 0; r < w.rounds; ++r) {
        NodeId producer = r % env.numNodes();
        if (env.id() == producer) {
            for (unsigned i = 0; i < w.opsPerNode; ++i) {
                co_await env.putBits(arr,
                                     blockIndex(i % w.blocks),
                                     serial(env.id(), ++count));
            }
        }
        co_await env.barrier();
        for (unsigned i = 0; i < w.opsPerNode; ++i) {
            (void)co_await env.getBits(
                arr, blockIndex(i % w.blocks));
        }
        co_await env.barrier();
    }
}

Task
barrierChurn(Env &env, StressWorkload w, ShmArray arr)
{
    Rng rng = Rng(w.seed).split(env.id());
    std::uint64_t count = 0;
    unsigned burst = std::max(1u, w.opsPerNode / 4);
    for (unsigned r = 0; r < w.rounds; ++r) {
        for (unsigned phase = 0; phase < 4; ++phase) {
            for (unsigned i = 0; i < burst; ++i) {
                unsigned b = unsigned(rng.below(w.blocks));
                if (rng.chance(0.5)) {
                    co_await env.putBits(
                        arr, blockIndex(b),
                        serial(env.id(), ++count));
                } else {
                    (void)co_await env.getBits(arr, blockIndex(b));
                }
            }
            co_await env.barrier();
        }
    }
}

Task
hotSpot(Env &env, StressWorkload w, ShmArray arr, ShmArray sync)
{
    // The hot-spot storm (ROADMAP item 4): every node hammers
    // typed atomics on sync word 0 — the traffic in-network
    // combining exists to flatten — with a sprinkle of atomics on
    // the other sync words and of ordinary coherent reads, so the
    // combining path runs concurrently with directory traffic.
    Rng rng = Rng(w.seed).split(env.id());
    std::uint64_t acc = 0;
    for (unsigned r = 0; r < w.rounds; ++r) {
        for (unsigned i = 0; i < w.opsPerNode; ++i) {
            if (rng.chance(0.2)) {
                acc += co_await env.getBits(
                    arr,
                    blockIndex(unsigned(rng.below(w.blocks))));
                continue;
            }
            std::size_t word = rng.chance(0.75)
                ? 0
                : 1 + rng.below(hotSpotSyncWords - 1);
            Addr a = sync.addrOf(word);
            switch (unsigned(rng.below(4))) {
              case 0:
              case 1:
                acc += co_await env.atomicFetchAdd(a, 1);
                break;
              case 2:
                acc += co_await env.atomicMax(
                    a, serial(env.id(), i));
                break;
              default:
                acc += co_await env.atomicMin(a, acc | 1);
                break;
            }
        }
        co_await env.barrier();
    }
}

} // namespace

std::function<Task(Env &)>
makeStressProgram(const StressWorkload &w, ShmArray arr,
                  ShmArray sync)
{
    if (w.pattern == StressPattern::HotSpot) {
        if (sync.size() < hotSpotSyncWords) {
            panic("hot-spot pattern needs a combinable sync array "
                  "of >= %zu words", hotSpotSyncWords);
        }
        return [w, arr, sync](Env &env) {
            return hotSpot(env, w, arr, sync);
        };
    }
    switch (w.pattern) {
      case StressPattern::SharingHeavy:
        return [w, arr](Env &env) {
            return sharingHeavy(env, w, arr);
        };
      case StressPattern::Migratory:
        return [w, arr](Env &env) {
            return migratory(env, w, arr);
        };
      case StressPattern::ProducerConsumer:
        return [w, arr](Env &env) {
            return producerConsumer(env, w, arr);
        };
      case StressPattern::BarrierChurn:
        return [w, arr](Env &env) {
            return barrierChurn(env, w, arr);
        };
      case StressPattern::HotSpot:
        break; // handled above
    }
    panic("bad stress pattern");
}

} // namespace cenju
