/**
 * @file
 * One field list per stateful class.
 *
 * A stateful class describes its persistent state once, in
 * `template <class V> void visitState(V &v)`, and three adapters drive
 * that walk: StateWriter appends the fields to a Serializer,
 * StateReader decodes them from a Deserializer, and StateHasher feeds
 * exactly the bytes the writer would append into an Fnv1a hash.  Save,
 * restore and digest therefore cannot disagree on a field's presence,
 * width or order, and a digest is the FNV-1a of the state's bytes.
 *
 *     v(fields...)           bool, integer or enum (at its own width),
 *                            double, string, or a fixed array of them
 *     v.expect(msg, live...) configuration fingerprints: emitted, or on
 *                            read compared against the live values
 *     v.check(cond, msg)     bound the reader enforces on what it just
 *                            decoded (ignored when emitting)
 *     v.list<W>(c, what, n, fn[, before])
 *                            count (as W), then fn(item) per item, in
 *                            container order or sorted by `before`; the
 *                            reader rejects counts the rest of the
 *                            payload cannot hold at n bytes per item
 *     visit(v, rng)          a util::Rng's complete state
 */

#ifndef HDMR_SNAPSHOT_STATE_VISITOR_HH
#define HDMR_SNAPSHOT_STATE_VISITOR_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/digest.hh"
#include "snapshot/serializer.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace hdmr::snapshot
{

namespace detail
{

template <class T>
inline constexpr bool kIsArray = std::is_array_v<T>;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

} // namespace detail

/**
 * StateWriter (Out = Serializer) and StateHasher (Out = Fnv1a): one
 * little-endian encoding feeds both, so the hash is exactly FNV-1a
 * over the bytes the writer appends.
 */
template <class Out>
class StateEmitter
{
  public:
    static constexpr bool kReading = false;

    explicit StateEmitter(Out &out) : out_(out) {}

    template <class... T>
    void operator()(const T &...values) { (put(values), ...); }

    template <class... T>
    void expect(const char *, const T &...live) { (put(live), ...); }

    void check(bool, const char *, util::StatusCode = {}) {}
    void check(const util::Status &) {}

    /** Emits the items ordered by `before` if given; the reader gets
     *  them back in emitted order. */
    template <class W = std::uint64_t, class C, class F,
              class Before = std::nullptr_t>
    void
    list(C &items, const char *, std::uint64_t, F &&each,
         Before before = nullptr)
    {
        using Item = typename C::value_type;
        put(static_cast<W>(items.size()));
        if constexpr (!std::is_null_pointer_v<Before>) {
            std::vector<Item *> sorted;
            for (Item &item : items)
                sorted.push_back(&item);
            std::sort(sorted.begin(), sorted.end(),
                      [&](Item *a, Item *b) { return before(*a, *b); });
            for (Item *item : sorted)
                each(*item);
        } else {
            for (Item &item : items)
                each(item);
        }
    }

  private:
    template <class T>
    void
    put(const T &value)
    {
        if constexpr (std::is_same_v<T, double>) {
            put(std::bit_cast<std::uint64_t>(value));
        } else if constexpr (std::is_enum_v<T>) {
            put(static_cast<std::underlying_type_t<T>>(value));
        } else if constexpr (std::is_integral_v<T>) { // bool: one byte
            const auto bits = static_cast<std::uint64_t>(value);
            std::uint8_t bytes[sizeof(T)];
            for (std::size_t i = 0; i < sizeof(T); ++i)
                bytes[i] = static_cast<std::uint8_t>(bits >> (8 * i));
            emit(bytes, sizeof(T));
        } else if constexpr (std::is_same_v<T, std::string>) {
            put(static_cast<std::uint32_t>(value.size()));
            emit(value.data(), value.size());
        } else {
            static_assert(detail::kIsArray<T>, "visitState: no encoding for this field type");
            for (const auto &element : value)
                put(element);
        }
    }

    void
    emit(const void *data, std::size_t size)
    {
        if constexpr (std::is_same_v<Out, Fnv1a>)
            out_.addBytes(data, size);
        else
            out_.writeBytes(data, size);
    }

    Out &out_;
};

using StateWriter = StateEmitter<Serializer>;
using StateHasher = StateEmitter<Fnv1a>;

/**
 * The first failure (truncation, bad value, fingerprint, check) latches
 * in the Deserializer with a status code; later reads yield zeros.
 */
class StateReader
{
  public:
    static constexpr bool kReading = true;

    explicit StateReader(Deserializer &in) : in_(in) {}

    template <class... T>
    void operator()(T &...fields) { (get(fields), ...); }

    /** A mismatch fails with kFailedPrecondition (a foreign image). */
    template <class... T>
    void
    expect(const char *mismatch, const T &...live)
    {
        const auto one = [&](const auto &value) {
            std::remove_cvref_t<decltype(value)> saved{};
            get(saved);
            check(saved == value, mismatch,
                  util::StatusCode::kFailedPrecondition);
        };
        (one(live), ...);
    }

    void
    check(bool ok, const char *message,
          util::StatusCode code = util::StatusCode::kDataLoss)
    {
        if (!ok && in_.ok()) {
            code_ = code;
            in_.fail(message);
        }
    }

    void
    check(const util::Status &status)
    {
        check(status.ok(), status.message().c_str(), status.code());
    }

    /** Items come back in emitted order; `before` is the writer's. */
    template <class W = std::uint64_t, class C, class F,
              class Before = std::nullptr_t>
    void
    list(C &items, const char *what, std::uint64_t min_bytes_each,
         F &&each, Before = nullptr)
    {
        W count{};
        get(count);
        items.clear();
        items.resize(in_.checkCount(count, what, min_bytes_each));
        for (auto &item : items)
            each(item);
    }

    bool ok() const { return in_.ok(); }

    /** kOk, or the first failure with its status code. */
    util::Status
    status() const
    {
        return ok() ? util::Status{} : util::Status(code_, in_.error());
    }

  private:
    template <class T>
    void
    get(T &field)
    {
        if constexpr (std::is_same_v<T, bool>)
            field = in_.readBool();
        else if constexpr (std::is_same_v<T, double>)
            field = in_.readDouble();
        else if constexpr (std::is_integral_v<T> && sizeof(T) == 1)
            field = static_cast<T>(in_.readU8());
        else if constexpr (std::is_integral_v<T> && sizeof(T) == 2)
            field = static_cast<T>(in_.readU16());
        else if constexpr (std::is_integral_v<T> && sizeof(T) == 4)
            field = static_cast<T>(in_.readU32());
        else if constexpr (std::is_integral_v<T> && sizeof(T) == 8)
            field = static_cast<T>(in_.readU64());
        else if constexpr (std::is_same_v<T, std::string>)
            field = in_.readString();
        else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw{};
            get(raw);
            field = static_cast<T>(raw);
        }
        else {
            static_assert(detail::kIsArray<T>, "visitState: no encoding for this field type");
            for (auto &element : field)
                get(element);
        }
    }

    Deserializer &in_;
    util::StatusCode code_ = util::StatusCode::kDataLoss;
};

/** A generator's complete state, spare normal included. */
template <class V>
void
visit(V &v, util::Rng &rng)
{
    util::RngState state = rng.state();
    v(state.s);
    v(state.hasSpareNormal);
    v(state.spareNormal);
    if constexpr (V::kReading)
        rng.setState(state);
}

/** Append `state` to `out`.  (Emitters only read through the cast.) */
template <class T>
void
writeState(const T &state, Serializer &out)
{
    StateWriter writer(out);
    const_cast<T &>(state).visitState(writer);
}

/** FNV-1a of exactly the bytes writeState() would append. */
template <class T>
std::uint64_t
hashState(const T &state)
{
    Fnv1a hash;
    StateHasher hasher(hash);
    const_cast<T &>(state).visitState(hasher);
    return hash.value();
}

/**
 * Restore-into-copy: decode into a scratch copy of `state` and commit
 * it only when the whole image decoded and passed every check.  On
 * failure `state` is untouched and `in` carries the error too.
 */
template <class T>
util::Status
readState(T &state, Deserializer &in)
{
    T scratch = state;
    StateReader reader(in);
    scratch.visitState(reader);
    if (reader.ok())
        state = std::move(scratch);
    return reader.status();
}

} // namespace hdmr::snapshot

#endif // HDMR_SNAPSHOT_STATE_VISITOR_HH
