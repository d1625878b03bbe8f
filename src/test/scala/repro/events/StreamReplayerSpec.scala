package repro.events

import org.apache.spark.sql.functions._
import repro.SparkSpec

class StreamReplayerSpec extends SparkSpec {

  private lazy val df = MonitoringData.events(spark, sf = 0.002, seed = 3).cache()

  test("select with no filters returns everything") {
    assert(StreamReplayer.select(df).count() == df.count())
  }

  test("select restricts hosts") {
    val one = StreamReplayer.select(df, agents = Seq(0L))
    assert(one.filter(col("agentid") =!= 0).count() == 0)
    assert(one.count() > 0)
  }

  test("select restricts the time range half-open") {
    val r = StreamReplayer.select(df, startMs = 1000, endMs = 2000)
    assert(r.filter(col("ts") < 1000 || col("ts") >= 2000).count() == 0)
  }
}
