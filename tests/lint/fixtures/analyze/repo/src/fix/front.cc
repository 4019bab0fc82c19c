// Front-end-side fixture TU: config reads through params, the
// configs_.front() pattern and its local alias, an indexed alias, the
// key/geometry definitional functions, stat registration with a
// ctor-init handle bind, and the analyze-ignore escape.
#include "fix/config.hh"

namespace fix {

class Pager
{
  public:
    explicit Pager(const OsKnobs &knobs) : memBytes_(knobs.memBytes)
    {
    }
    std::uint64_t memBytes() const { return memBytes_; }

  private:
    std::uint64_t memBytes_ = 0;
};

class Counters
{
  public:
    Counters() : hits_(&stats_.scalar("hits")) {}
    void hit() { hits_->add(1.0); }
    double hits() const { return hits_->value(); }

  private:
    StatGroup stats_;
    StatScalar *hits_ = nullptr;
};

double
sampleHits(const StatGroup &group)
{
    return group.get("hits");
}

std::string
miniKey(const MiniConfig &c)
{
    std::string key;
    key += std::to_string(c.cores);
    key += std::to_string(c.seed);
    key += std::to_string(c.os.memBytes);
    return key;
}

unsigned
miniGeom(const MiniConfig &c)
{
    return c.cores;
}

class Engine
{
  public:
    explicit Engine(std::vector<MiniConfig> configs)
        : configs_(std::move(configs)), pager_(configs_.front().os)
    {
    }

    std::uint64_t run()
    {
        const MiniConfig &front = configs_.front();
        std::uint64_t acc = front.seed;
        for (unsigned i = 0; i < front.cores; ++i)
            acc += step(i);
        return acc + pager_.memBytes();
    }

  private:
    std::uint64_t step(unsigned i)
    {
        const MiniConfig &sub = configs_[i];
        counters_.hit();
        return static_cast<std::uint64_t>(sub.l1Assoc);
    }

    std::vector<MiniConfig> configs_;
    Pager pager_;
    Counters counters_;
};

std::uint64_t
driveEngine(std::vector<MiniConfig> configs)
{
    Engine engine(std::move(configs));
    return engine.run();
}

std::uint64_t
ignoredRead(const MiniConfig &c)
{
    return c.seed + 1; // seesaw-analyze-ignore: fixture suppression sample
}

} // namespace fix
