package repro.streaming

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{StateMaintainer, TestEvents}
import repro.core.TestEvents.{rulePlan, statePlan}
import repro.events.SystemEvent
import repro.saql.Parser

/** The compiled SAQL operators running as real Structured Streaming
  * queries over a MemoryStream feed.
  */
class StreamingRunnerSpec extends SparkSpec {

  private val smaQuery = Parser.parse(
    """proc p write ip i as evt #time(10 s)
      |state ss { avg_amount := avg(evt.amount) } group by p
      |alert ss.avg_amount > 10000
      |return p, ss.avg_amount""".stripMargin, "sma_stream")

  private val ruleQuery = Parser.parse(
    """proc p1["%evil.exe"] write file f1 as evt1
      |return distinct p1, f1""".stripMargin, "rule_stream")

  private def streamOf(events: Seq[SystemEvent])(
      use: org.apache.spark.sql.DataFrame => Unit): Unit = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    val ms = MemoryStream[SystemEvent]
    ms.addData(events)
    use(ms.toDF())
  }

  test("rule alerts stream out per matching event") {
    val evs = Seq(
      TestEvents.file(0, 1000L, "good.exe", "write", "/tmp/ok"),
      TestEvents.file(0, 2000L, "evil.exe", "write", "/tmp/loot"),
      TestEvents.file(0, 3000L, "evil.exe", "write", "/tmp/loot2"))
    streamOf(evs) { df =>
      val q = StreamingRunner.ruleAlerts(df, rulePlan(ruleQuery))
        .writeStream.format("memory").queryName("rule_out")
        .outputMode("append").start()
      try {
        q.processAllAvailable()
        val out = spark.table("rule_out").orderBy("__alert_ts").collect()
        assert(out.map(_.getAs[String]("f1")).toSeq == Seq("/tmp/loot", "/tmp/loot2"))
        assert(out.forall(_.getAs[String]("p1") == "evil.exe"))
      } finally q.stop()
    }
  }

  test("streaming window states equal the batch state maintainer") {
    val evs = (0 until 50).map(i =>
      TestEvents.net(0, i * 1000L, s"app${i % 3}.exe", "1.1.1.1", 100L + i))
    streamOf(evs) { df =>
      val q = StreamingRunner.windowStates(df, statePlan(smaQuery))
        .writeStream.format("memory").queryName("win_out")
        .outputMode("complete").start()
      try {
        q.processAllAvailable()
        val streaming = spark.table("win_out")
          .select("__win", "p", "avg_amount")
          .collect().map(_.toString).sorted.toSeq
        val batch = StateMaintainer.states(TestEvents.df(spark, evs), statePlan(smaQuery))
          .select("__win", "p", "avg_amount")
          .collect().map(_.toString).sorted.toSeq
        assert(streaming == batch)
        assert(streaming.nonEmpty)
      } finally q.stop()
    }
  }

  test("sliding streaming windows replicate events like the batch engine") {
    val slideQuery = Parser.parse(
      """proc p write ip i as evt #time(10 s, 5 s)
        |state ss { n := count(evt.amount) } group by p
        |alert ss.n > 0
        |return p, ss.n""".stripMargin, "slide_stream")
    val evs = (0 until 30).map(i =>
      TestEvents.net(0, i * 1000L, "app.exe", "1.1.1.1", 100L))
    streamOf(evs) { df =>
      val q = StreamingRunner.windowStates(df, statePlan(slideQuery))
        .writeStream.format("memory").queryName("slide_out")
        .outputMode("complete").start()
      try {
        q.processAllAvailable()
        val streaming = spark.table("slide_out").select("__win", "p", "n")
          .collect().map(_.toString).sorted.toSeq
        val batch = StateMaintainer.states(TestEvents.df(spark, evs), statePlan(slideQuery))
          .select("__win", "p", "n")
          .collect().map(_.toString).sorted.toSeq
        assert(streaming == batch)
      } finally q.stop()
    }
  }

  test("file-source streaming: the replayer feed drives the same operators") {
    val dir = java.nio.file.Files.createTempDirectory("sfeed").toString + "/feed"
    val evs = (0 until 40).map(i =>
      TestEvents.net(0, i * 1000L, "app.exe", "1.1.1.1", 20_000L))
    repro.events.StreamReplayer.writeFeed(TestEvents.df(spark, evs), dir)
    val stream = spark.readStream.schema(SystemEvent.schema).json(dir)
    val q = StreamingRunner.windowStates(stream, statePlan(smaQuery))
      .writeStream.format("memory").queryName("file_out")
      .outputMode("complete").start()
    try {
      q.processAllAvailable()
      val out = spark.table("file_out")
      assert(out.count() == 4) // 40s of events, 10s tumbling windows
      assert(out.filter(col("avg_amount") === 20000.0).count() == 4)
    } finally q.stop()
  }
}
