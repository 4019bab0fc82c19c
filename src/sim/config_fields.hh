/**
 * @file
 * The SystemConfig field registry: each leaf has one role — front end
 * (read by the shared one-pass front end), TLB geometry, or substrate —
 * written by one function, one line per leaf. frontEndKey,
 * tlbGeometryKey and configHash derive from these writers. The audit
 * fields are observe-only: audits never change results, so no role
 * writes them.
 */

#ifndef SEESAW_SIM_CONFIG_FIELDS_HH
#define SEESAW_SIM_CONFIG_FIELDS_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/config.hh"

namespace seesaw {

/** Appends values as exact bytes: raw bytes for scalars,
 *  length-prefixed strings. No field names, so renaming a field
 *  re-keys nothing. */
class FieldWriter
{
  public:
    template <typename T>
    void put(const T &value)
    {
        // Leaves only: a struct's padding bytes are indeterminate.
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        bytes_.append(reinterpret_cast<const char *>(&value), sizeof(T));
    }

    void put(const std::string &value)
    {
        put(static_cast<std::uint64_t>(value.size()));
        bytes_ += value;
    }

    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
};

/** Fields the shared one-pass front end reads (frontEndKey). */
void writeFrontEndFields(const SystemConfig &c, FieldWriter &w);
/** Fields that shape a per-core TLB hierarchy (tlbGeometryKey). */
void writeTlbGeometryFields(const SystemConfig &c, FieldWriter &w);
/** Every other result-affecting field. */
void writeSubstrateFields(const SystemConfig &c, FieldWriter &w);

} // namespace seesaw

#endif // SEESAW_SIM_CONFIG_FIELDS_HH
