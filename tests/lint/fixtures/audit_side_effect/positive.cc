// seesaw-audit-side-effect positive fixture: callbacks registered
// with InvariantAuditor that mutate captured state must be diagnosed
// — every audit mode must give the result audits off gives, so any
// mutation would make audited and unaudited runs diverge.

#include "check/invariant_auditor.hh"

class ToyCache
{
  public:
    void
    registerAudits(seesaw::check::InvariantAuditor &auditor)
    {
        auditor.registerCheck(
            "toy.mutating",
            [this, &auditor](seesaw::check::AuditContext &ctx) {
                repairs_ = repairs_ + 1;             // EXPECT-WARN
                ++observed_;                         // EXPECT-WARN
                repair();                            // EXPECT-WARN
                if (repairs_ > 3)
                    ctx.violation(0, "too many repairs");
                (void)auditor;
            });
    }

  private:
    void repair() {}
    int repairs_ = 0;
    int observed_ = 0;
};

void
registerCounterAudit(seesaw::check::InvariantAuditor &auditor,
                     int &global_counter)
{
    auditor.registerCheck(
        "toy.counter",
        [&global_counter](seesaw::check::AuditContext &ctx) {
            global_counter += 1;                     // EXPECT-WARN
            if (global_counter < 0)
                ctx.violation(0, "negative counter");
        });
}
