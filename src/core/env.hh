/**
 * @file
 * Per-node program environment: the API workload coroutines program
 * against.
 *
 * Every operation is awaitable; the coroutine suspends until the
 * simulated machine completes it. Loads and stores go through the
 * master module (cache + coherence protocol); compute() charges
 * processor time; barrier()/allReduceSum() run on the message-
 * passing layer, as the paper's shared-memory library does; and
 * send()/recv() expose message passing directly for the mpi
 * program variants.
 */

#ifndef CENJU_CORE_ENV_HH
#define CENJU_CORE_ENV_HH

#include <coroutine>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/mapping.hh"
#include "core/sync.hh"
#include "msgpass/msg_engine.hh"
#include "node/dsm_node.hh"
#include "sim/types.hh"
#include "transport/combine.hh"

namespace cenju
{

/**
 * Awaitable completing via a callback. The @p Starter is called
 * once, at suspension, with a 16-byte `done(T)` (`done()` for void
 * @p T) that stores the value and resumes the coroutine. Both are
 * plain types, so the first type erasure is the machine's own
 * callback (MasterModule::LoadCallback, ...), which holds a
 * starter's completion lambda inline.
 */
template <typename T, typename Starter>
class CallbackAwaitable
{
  public:
    explicit CallbackAwaitable(Starter starter)
        : _starter(std::move(starter))
    {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        _starter(Done{this, h});
    }

    T
    await_resume()
    {
        if constexpr (!std::is_void_v<T>)
            return std::move(_result);
    }

  private:
    struct Done
    {
        CallbackAwaitable *self;
        std::coroutine_handle<> h;

        template <typename... V>
        void
        operator()(V &&...v) const
        {
            ((self->_result = std::forward<V>(v)), ...);
            h.resume();
        }
    };

    Starter _starter;
    std::conditional_t<std::is_void_v<T>, bool, T> _result{};
};

/** CallbackAwaitable<T> for @p starter, deducing its type. */
template <typename T = void, typename Starter>
CallbackAwaitable<T, Starter>
awaitable(Starter starter)
{
    return CallbackAwaitable<T, Starter>(std::move(starter));
}

/** The per-node programming interface. */
class Env
{
  public:
    Env(DsmNode &node, MsgEngine &engine, SyncEngine &sync)
        : _node(node), _engine(engine), _sync(sync)
    {}

    NodeId id() const { return _node.id(); }
    unsigned numNodes() const { return _node.numNodes(); }
    Tick now() const { return _node.eq().now(); }

    // --- raw memory ------------------------------------------------

    /** 64-bit load; counts one memory access instruction. */
    auto
    load(Addr a)
    {
        ++instructions;
        ++memAccesses;
        return awaitable<std::uint64_t>(
            [this, a](auto done) {
                Tick t0 = now();
                _node.master().load(
                    a, [this, t0,
                        done = std::move(done)](std::uint64_t v) {
                        memTime += now() - t0;
                        done(v);
                    });
            });
    }

    /** 64-bit store; counts one memory access instruction. */
    auto
    store(Addr a, std::uint64_t v)
    {
        ++instructions;
        ++memAccesses;
        return awaitable(
            [this, a, v](auto done) {
                Tick t0 = now();
                _node.master().store(
                    a, v, [this, t0, done = std::move(done)] {
                        memTime += now() - t0;
                        done();
                    });
            });
    }

    // --- typed shared/private array access --------------------------

    /** Load element @p i of @p arr as a double. */
    auto
    get(const ShmArray &arr, std::size_t i)
    {
        Addr a = arr.addrOf(i);
        ++instructions;
        ++memAccesses;
        return awaitable<double>(
            [this, a](auto done) {
                Tick t0 = now();
                _node.master().load(
                    a, [this, t0,
                        done = std::move(done)](std::uint64_t v) {
                        memTime += now() - t0;
                        done(real(v));
                    });
            });
    }

    auto
    getBits(const ShmArray &arr, std::size_t i)
    {
        return load(arr.addrOf(i));
    }

    auto
    put(const ShmArray &arr, std::size_t i, double v)
    {
        return store(arr.addrOf(i), bits(v));
    }

    auto
    putBits(const ShmArray &arr, std::size_t i, std::uint64_t v)
    {
        return store(arr.addrOf(i), v);
    }

    auto
    loadPriv(const PrivArray &arr, std::size_t i)
    {
        return load(arr.addrOf(i));
    }

    /**
     * Load element @p i of a private array as a double. The name
     * matches the shared-array accessor deliberately: shared-memory
     * programs read the same as private ones (the DSM transparency
     * the paper's rewriting-ratio experiment measures).
     */
    auto
    get(const PrivArray &arr, std::size_t i)
    {
        Addr a = arr.addrOf(i);
        ++instructions;
        ++memAccesses;
        return awaitable<double>(
            [this, a](auto done) {
                Tick t0 = now();
                _node.master().load(
                    a, [this, t0,
                        done = std::move(done)](std::uint64_t v) {
                        memTime += now() - t0;
                        done(real(v));
                    });
            });
    }

    auto
    storePriv(const PrivArray &arr, std::size_t i, double v)
    {
        return store(arr.addrOf(i), bits(v));
    }

    /** Store a double into a private array (same name as shared). */
    auto
    put(const PrivArray &arr, std::size_t i, double v)
    {
        return store(arr.addrOf(i), bits(v));
    }

    // --- bulk (DMA) transfers ----------------------------------------

    /**
     * Read @p count words of a private array starting at @p offset
     * as the controller's DMA engine would: coherent with the
     * cache, one fixed setup cost, no per-word processor
     * instructions (message payload bandwidth is charged by the
     * message-passing layer).
     */
    auto
    readRange(const PrivArray &arr, std::size_t offset,
              std::size_t count)
    {
        return awaitable<std::vector<std::uint64_t>>(
            [this, arr, offset, count](auto done) {
                _node.eq().scheduleAfter(
                    dmaSetup,
                    [this, arr, offset, count,
                     done = std::move(done)] {
                        std::vector<std::uint64_t> out;
                        out.reserve(count);
                        for (std::size_t i = 0; i < count; ++i) {
                            Addr a = arr.addrOf(offset + i);
                            const CacheLine *line =
                                _node.cache().lookup(a);
                            if (line) {
                                out.push_back(
                                    line->data
                                        .w[(a & (blockBytes - 1)) /
                                           8]);
                            } else {
                                out.push_back(
                                    _node.privateMem().readWord(
                                        addr_map::offset(a)));
                            }
                        }
                        done(std::move(out));
                    });
            });
    }

    /**
     * Write @p values into a private array at @p offset via DMA:
     * memory is updated and stale cached copies are invalidated.
     */
    auto
    writeRange(const PrivArray &arr, std::size_t offset,
               std::vector<std::uint64_t> values)
    {
        return awaitable(
            [this, arr, offset,
             values = std::move(values)](auto done) {
                _node.eq().scheduleAfter(
                    dmaSetup, [this, arr, offset, values,
                               done = std::move(done)] {
                        for (std::size_t i = 0; i < values.size();
                             ++i) {
                            Addr a = arr.addrOf(offset + i);
                            _node.privateMem().writeWord(
                                addr_map::offset(a), values[i]);
                            if (CacheLine *line =
                                    _node.cache().lookup(a)) {
                                line->state = CacheState::Invalid;
                            }
                        }
                        done();
                    });
            });
    }

    /** DMA engine setup cost (ns). */
    static constexpr Tick dmaSetup = 1000;

    // --- computation -------------------------------------------------

    /** Execute @p instrs non-memory instructions. */
    auto
    compute(std::uint64_t instrs)
    {
        instructions += instrs;
        return awaitable(
            [this, instrs](auto done) {
                Tick t = instrs * _node.timing().nsPerInstruction;
                computeTime += t;
                _node.eq().scheduleAfter(t, std::move(done));
            });
    }

    // --- synchronization ----------------------------------------------

    auto
    barrier()
    {
        ++barriers;
        return awaitable([this](auto done) {
            Tick t0 = now();
            _sync.barrier([this, t0, done = std::move(done)] {
                syncTime += now() - t0;
                // A barrier is a phase boundary (src/policy/): the
                // phase-priority backend orders conflicting
                // requests by this epoch. Advancing inside the
                // completion callback schedules nothing, so the
                // other backends are bit-identically unaffected.
                _node.policy().advanceEpoch();
                done();
            });
        });
    }

    auto
    allReduceSum(double v)
    {
        return awaitable<double>(
            [this, v](auto done) {
                Tick t0 = now();
                _sync.allReduceSum(
                    v, [this, t0,
                        done = std::move(done)](double total) {
                        syncTime += now() - t0;
                        done(total);
                    });
            });
    }

    // --- combinable typed atomics (ROADMAP item 4) -------------------

    /**
     * Typed atomic on a combinable synchronization word allocated
     * with DsmSystem::shmAllocCombinable: the home applies the op
     * to memory and returns the pre-op value, and concurrent
     * requests to the same word may combine in flight (in the
     * switches, at a hardware station, or in per-node software
     * trees, depending on the transport backend). Counted as
     * synchronization time, like barriers.
     */
    auto
    atomic(Addr a, CombineOp op, std::uint64_t operand)
    {
        ++instructions;
        ++memAccesses;
        return awaitable<std::uint64_t>(
            [this, a, op, operand](auto done) {
                Tick t0 = now();
                _node.master().atomicOp(
                    a, op, operand,
                    [this, t0,
                     done = std::move(done)](std::uint64_t v) {
                        syncTime += now() - t0;
                        done(v);
                    });
            });
    }

    auto
    atomicFetchAdd(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::FetchAdd, v);
    }

    auto
    atomicMin(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::Min, v);
    }

    auto
    atomicMax(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::Max, v);
    }

    auto
    atomicSwap(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::Swap, v);
    }

    // --- message passing ------------------------------------------------

    /** Send; completes when the sender's processor is free. */
    auto
    send(NodeId dst, int tag, std::vector<std::uint64_t> payload,
         unsigned bytes = 0)
    {
        return awaitable(
            [this, dst, tag, payload = std::move(payload),
             bytes](auto done) mutable {
                Tick t0 = now();
                _engine.send(dst, tag, std::move(payload), bytes,
                             [this, t0, done = std::move(done)] {
                                 commTime += now() - t0;
                                 done();
                             });
            });
    }

    auto
    recv(NodeId src, int tag)
    {
        return awaitable<std::vector<std::uint64_t>>(
            [this, src, tag](auto done) {
                Tick t0 = now();
                _engine.recv(
                    src, tag,
                    [this, t0, done = std::move(done)](
                        std::vector<std::uint64_t> p) {
                        commTime += now() - t0;
                        done(std::move(p));
                    });
            });
    }

    // --- double <-> bits helpers ------------------------------------

    static std::uint64_t
    bits(double v)
    {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    }

    static double
    real(std::uint64_t b)
    {
        double v;
        std::memcpy(&v, &b, sizeof(v));
        return v;
    }

    // --- per-node accounting (aggregated into Tables 3/4) -----------

    std::uint64_t instructions = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t barriers = 0;
    Tick computeTime = 0;
    Tick memTime = 0;
    Tick syncTime = 0;
    Tick commTime = 0;
    Tick finishTick = 0;

  private:
    DsmNode &_node;
    MsgEngine &_engine;
    SyncEngine &_sync;
};

} // namespace cenju

#endif // CENJU_CORE_ENV_HH
