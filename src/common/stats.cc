#include "common/stats.hh"

#include <sstream>

namespace seesaw {

StatGroup::StatGroup(std::string name) : name_(std::move(name)) {}

StatScalar &
StatGroup::scalar(const std::string &name)
{
    return scalars_[name];
}

double
StatGroup::get(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second.value();
}

void
StatGroup::resetAll()
{
    for (auto &[name, stat] : scalars_)
        stat.reset();
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &[name, stat] : scalars_)
        os << name_ << '.' << name << ' ' << stat.value() << '\n';
    return os.str();
}

} // namespace seesaw
