// The worker-pool driver is Campaign itself (campaign/campaign.h): pass it a
// `jobs` count. This alias remains only for campaignbench/, which still
// includes this header and names the old class; it goes when that harness
// next changes.
#pragma once

#include "campaign/campaign.h"

namespace chaser::campaign {

using ParallelCampaign = Campaign;

}  // namespace chaser::campaign
