/**
 * @file
 * The SystemConfig field registry: each leaf has one role — front end
 * (read by the shared one-pass front end, TLB hierarchy included) or
 * substrate — written by one function, one line per leaf. frontEndKey
 * and configHash derive from these writers. The audit fields are
 * observe-only: audits never change results, so no role writes them.
 */

#ifndef SEESAW_SIM_CONFIG_FIELDS_HH
#define SEESAW_SIM_CONFIG_FIELDS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/config.hh"

namespace seesaw {

/**
 * Appends values as exact bytes: raw bytes for scalars,
 * length-prefixed strings. No field names, so renaming a field
 * re-keys nothing. Every byte also feeds a running FNV-1a hash, so a
 * writer that keeps no bytes hashes a config without allocating.
 */
class FieldWriter
{
  public:
    explicit FieldWriter(bool keep_bytes = true) : keepBytes_(keep_bytes)
    {
    }

    template <typename T>
    void put(const T &value)
    {
        // Leaves only: a struct's padding bytes are indeterminate.
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        append(reinterpret_cast<const char *>(&value), sizeof(T));
    }

    void put(const std::string &value)
    {
        put(static_cast<std::uint64_t>(value.size()));
        append(value.data(), value.size());
    }

    /** The bytes written; empty unless the writer keeps them. */
    const std::string &bytes() const { return bytes_; }

    /** FNV-1a over the bytes written, then over their count. */
    std::uint64_t hash() const;

  private:
    void
    append(const char *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= static_cast<unsigned char>(data[i]);
            hash_ *= kFnvPrime;
        }
        size_ += size;
        if (keepBytes_)
            bytes_.append(data, size);
    }

    static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

    const bool keepBytes_;
    std::string bytes_;
    std::size_t size_ = 0;
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Fields the shared one-pass front end reads (frontEndKey), the
 *  per-core TLB hierarchy's geometry and replacement last. */
void writeFrontEndFields(const SystemConfig &c, FieldWriter &w);
/** Every other result-affecting field. */
void writeSubstrateFields(const SystemConfig &c, FieldWriter &w);

} // namespace seesaw

#endif // SEESAW_SIM_CONFIG_FIELDS_HH
