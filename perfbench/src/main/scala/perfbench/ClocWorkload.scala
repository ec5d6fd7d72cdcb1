package perfbench

import perfbench.Check.ensure
import perfbench.CountingFileSystemWrapper._
import repro.bench.{AccuracyExperiment, Corpus, Harness}
import repro.core.{EvalSet, PipelineConfig, PipelineReport, Supervisor}
import repro.core.triggers.Trigger
import repro.datagen.ClocLite
import repro.evaluator.Evaluator
import repro.modelstorage.ModelStorage
import repro.selector._
import repro.storage.{LocalFileSystemWrapper, SampleMeta, SampleRegistry, StorageService}
import repro.trainer._
import scala.collection.mutable

object ClocWorkload {
  /** A quarter of the T4/T5 size. A set-up creates two files per sample,
    * and creating and deleting tens of thousands of small files per run
    * made file creation slower run after run (ext4 on a virtual disk);
    * 6.6 k files per set-up keep the runs comparable and within their time
    * limit. Triggers, evaluations and model stores per pipeline are as in
    * T4/T5.
    */
  val SamplesPerYear    = 300
  val NumClasses        = 48
  val FeatureDim        = 64
  val NumYears          = ClocLite.Years.size
  val ReplayBatch       = 500
  val SendBuffer        = 512
  val FullModelInterval = 5
  val EvalThreads       = 4
  val LocalWorkers      = 4
  val LocalBatch        = 256
  /** Final models must be well above the 1/48 chance level. */
  val MinFinalAcc       = 4.0 / NumClasses
  val Kinds: Seq[String] = AccuracyExperiment.Strategies
  /** Repetitions per pass of the selection-alone replay and local baseline. */
  val Reps              = 7

  /** Selection alone of the three policies: samples informed, inform and
    * trigger time, and the TSS writes within the triggers.
    */
  final case class SelectRep(samples: Long, informNs: Long, triggerNs: Long,
                             tssWriteNs: Long, tssWriteBytes: Long)

  /** The §5.2 pipeline of `kind` with the workload seed and I/P-frame model
    * storage (a full model every 5 triggers).
    */
  def pipeline(kind: String, seed: Long): PipelineConfig =
    AccuracyExperiment.pipeline(kind, NumClasses, FeatureDim)
      .copy(fullModelInterval = FullModelInterval, seed = seed)
}

/** CLOC-lite pass: the three §5.2 pipelines through
  * `Supervisor.runExperiment` (yearly triggers, evaluation on every year
  * after every trigger), then the same three selection policies driven
  * directly (selection alone), then the local single-sample-file baseline.
  */
final class ClocWorkload(rc: RunContext) extends Workload {
  import ClocWorkload._

  private val plainFs = new LocalFileSystemWrapper
  private val parser  = new ClocBytesParser(FeatureDim)
  private val tr      = rc.tracer

  private var setupDir: String         = _
  private var registry: SampleRegistry = _
  private var metas: IndexedSeq[SampleMeta] = _
  private var evalSets: Seq[EvalSet]   = _
  private var countingFs: CountingFileSystemWrapper = _
  private var lastTracedDir: Option[String] = None

  override def setup(dir: String): Long = {
    val previous = Option(setupDir)
    val reg      = new SampleRegistry
    val t0       = System.nanoTime()
    val ms       = ClocLite.generate(plainFs, reg, s"$dir/data", SamplesPerYear, NumClasses,
      FeatureDim, rc.seed)
    val ns       = System.nanoTime() - t0
    ensure(ms.length == SamplesPerYear * NumYears, s"ingested ${ms.length} samples")
    Option(registry).foreach(_.close())
    previous.foreach(Dirs.deleteTree)
    setupDir   = dir
    registry   = reg
    metas      = ms
    evalSets   = Supervisor.yearlyEvalSets(reg.allSamplesByTime())
    countingFs = new CountingFileSystemWrapper(plainFs, s"$dir/data")
    ns
  }

  override def pass(p: Int, traced: Boolean, out: PassOutcome): Unit = {
    val fs  = if (traced) countingFs else plainFs
    val dir = s"${rc.workDir}/pass_$p"

    tr.timed("pass") {
      val io0 = countingFs.snapshot()
      val runs = Kinds.map { kind =>
        rc.op(s"pipeline_$kind") {
          val storage = new StorageService(registry, fs, SendBuffer)
          val sup     = new Supervisor(pipeline(kind, rc.seed), registry, storage, fs, s"$dir/$kind")
          val (report, ns) = tr.timed(s"core.run_experiment.$kind")(
            sup.runExperiment(ReplayBatch, evalSets, trailingTrigger = true))
          val leaked = DataPathThreads.alive()
          ensure(leaked.isEmpty, s"data-path threads alive after $kind: ${leaked.mkString(", ")}")
          checkReport(kind, report)
          (kind, report, ns)
        }
      }
      val io1 = countingFs.snapshot()

      // Selection alone, with the policies' state files in memory, and the
      // local baseline. Both are short, so each runs `Reps` times and the
      // pass reports the median repetition.
      val selections = (0 until Reps).map { r =>
        val memFs   = new MemoryFileSystemWrapper
        val counted = Option.when(traced)(new CountingFileSystemWrapper(memFs, s"$setupDir/data"))
        val selFs   = counted.getOrElse(memFs)
        val sel = Kinds.map(kind => rc.op(s"select_$kind")(select(kind, selFs, s"$dir/select_$r/$kind")))
        Option.when(sel.forall(_.nonEmpty)) {
          val s = sel.flatten
          SelectRep(s.map(_._1).sum, s.map(_._2).sum, s.map(_._3).sum,
            counted.fold(0L)(c => Stats.unionLength(c.drainTssWrites())),
            counted.fold(0L)(_.snapshot().byteCount(Tss, Write)))
        }
      }.flatten
      val local = (0 until Reps).flatMap(_ => rc.op("local_baseline") {
        val corpus = new Corpus(registry, new StorageService(registry, plainFs, SendBuffer), metas,
          s"$setupDir/data", new TriggerSampleStorage(plainFs, s"$dir/unused"), Map.empty)
        val (res, ns) = tr.timed("trainer.local_epoch")(Harness.localSingleSampleThroughput(corpus,
          LocalWorkers, LocalBatch, parser, IdentityTransform, Harness.clocModel(FeatureDim, NumClasses)))
        ensure(res.samples == metas.length, s"local baseline yielded ${res.samples} samples")
        res.samples / (ns / 1e9)
      })

      val done = runs.flatten
      val results = done.flatMap(_._2.triggers.map(_.training))
      if (done.length == Kinds.length) {
        out.e2e("pipeline_s") = done.map(_._3).sum / 1e9
        out.e2e("train_samples_per_s") =
          results.map(_.samplesTrainedOn).sum / (results.map(_.wallClockMs).sum / 1e3)
        out.e2e("final_acc") = done.map(r => finalAcc(r._2)).sum / done.length
      }
      if (selections.nonEmpty)
        out.e2e("select_samples_per_s") = Stats.median(selections.map(s => s.samples / ((s.informNs + s.triggerNs) / 1e9)))
      if (local.nonEmpty) out.e2e("local_samples_per_s") = Stats.median(local)

      if (traced) {
        val l  = out.layers
        val io = io1 - io0
        val trained = results.map(_.samplesTrainedOn).sum.toDouble
        if (done.length == Kinds.length) {
          l("storage.read_calls_per_sample") = io.count(Data, Read, ReadAll) / trained
          l("storage.read_bytes_per_sample") = io.byteCount(Data, Read, ReadAll) / trained
          l("storage.size_calls_per_sample") = io.count(Data, Size) / trained
          l("selector.tss_read_ms")    = io.millis(Tss, Read, ReadAll, Size, List)
          l("selector.tss_list_calls") = io.count(Tss, List).toDouble
          l("selector.tss_read_calls") = io.count(Tss, Read, ReadAll).toDouble
          l("trainer.batches")         = results.map(_.batches).sum.toDouble
          l("trainer.samples_trained") = trained
          done.foreach { case (kind, report, ns) =>
            val trainMs = report.triggers.map(_.training.wallClockMs).sum.toDouble
            l(s"trainer.train_ms.$kind")   = trainMs
            l(s"core.non_train_ms.$kind")  = ns / 1e6 - trainMs
          }
          val reports = done.map(_._2)
          l("modelstorage.bytes_per_model") =
            reports.flatMap(_.triggers.map(_.storedModelBytes)).sum.toDouble / reports.map(_.triggers.size).sum
          l("modelstorage.write_ms") = io.millis(Models, Write)
          l("modelstorage.read_ms")  = io.millis(Models, Read, ReadAll)
          l("modelstorage.reads")    = io.count(Models, Read, ReadAll).toDouble
          l("evaluator.samples_evaluated") = reports.flatMap(_.triggers.flatMap(_.evals.values.flatMap(
            _.find(_.metric == "Accuracy").map(_.numSamples)))).sum.toDouble
          lastTracedDir.foreach(Dirs.deleteTree)
          lastTracedDir = Some(dir)
        }
        if (selections.nonEmpty) {
          l("selector.inform_ms")       = Stats.median(selections.map(_.informNs / 1e6))
          l("selector.select_ms")       = Stats.median(selections.map(s => (s.triggerNs - s.tssWriteNs) / 1e6))
          l("selector.tss_write_ms")    = Stats.median(selections.map(_.tssWriteNs / 1e6))
          l("selector.tss_write_bytes") = Stats.median(selections.map(_.tssWriteBytes.toDouble))
        }
        for (loc <- out.e2e.get("local_samples_per_s"); tps <- out.e2e.get("train_samples_per_s"))
          l("modyn_local_ratio") = tps / loc
      }
    }
    if (!lastTracedDir.contains(dir)) Dirs.deleteTree(dir)
  }

  /** 11 yearly triggers, each model evaluated on all 11 years. */
  private def checkReport(kind: String, report: PipelineReport): Unit = {
    ensure(report.triggers.size == NumYears,
      s"$kind: ${report.triggers.size} triggers, expected $NumYears")
    report.triggers.foreach { t =>
      ensure(t.evals.size == NumYears, s"$kind trigger ${t.triggerId}: ${t.evals.size} eval sets")
      ensure(t.evals.values.forall(_.forall(_.numSamples == SamplesPerYear)),
        s"$kind trigger ${t.triggerId}: an eval set was not evaluated in full")
    }
    val acc = finalAcc(report)
    ensure(acc > MinFinalAcc, f"$kind: final model accuracy $acc%.3f is not above $MinFinalAcc%.3f")
  }

  /** Mean accuracy of the final model over the 11 yearly eval sets. */
  private def finalAcc(report: PipelineReport): Double = {
    val last = report.triggers.last.triggerId
    val accs = ClocLite.Years.map(y => report.accuracyMatrix((last, y.toString)))
    accs.sum / accs.size
  }

  /** Inform the time-ordered stream in replay batches and trigger yearly,
    * like the supervisor; returns (samples informed, inform ns, trigger ns).
    */
  private def select(kind: String, fs: repro.storage.FileSystemWrapper,
                     dir: String): (Long, Long, Long) = {
    val pl      = pipeline(kind, rc.seed)
    val backend = StrategyFactory.backend(pl.selectionConfig.getOrElse("storage_backend", "local"),
      fs, s"$dir/selector", None)
    try {
      val ctx = SelectorContext(backend, new TriggerSampleStorage(fs, s"$dir/tss"),
        pl.partitionSize, seed = pl.seed)
      val strategy = StrategyFactory.strategy(pl.selectionName, pl.selectionConfig, pl.downsampling, ctx)
      val trigger  = Trigger.byName(pl.triggerId, pl.triggerConfig)
      val share    = pl.selectionConfig.get("fraction").map(_.toDouble)
      var informNs, triggerNs = 0L
      var triggers, pending = 0
      def fire(): Unit = {
        val (tts, ns) = tr.timed("selector.on_trigger")(strategy.onTrigger())
        val expected = share.fold(pending)(f => math.ceil(f * pending).toInt)
        ensure(tts.totalSamples == expected,
          s"$kind trigger $triggers selected ${tts.totalSamples} of $pending samples, expected $expected")
        triggerNs += ns; triggers += 1; pending = 0
      }
      def inform(s: Seq[NewSample]): Unit = {
        informNs += tr.timed("selector.inform")(strategy.inform(s))._2
        pending += s.length
      }
      metas.sortBy(m => (m.timestampSec, m.key)).grouped(ReplayBatch).foreach { batch =>
        val news = batch.map(m => NewSample(m.key, m.label, m.timestampSec))
        var consumed = 0
        trigger.inform(news).foreach { idx =>
          inform(news.slice(consumed, idx + 1)); consumed = idx + 1; fire()
        }
        if (consumed < news.length) inform(news.drop(consumed))
      }
      fire()
      ensure(triggers == NumYears, s"$kind: $triggers triggers, expected $NumYears")
      (metas.length.toLong, informNs, triggerNs)
    } finally backend.close()
  }

  /** The eval path of the supervisor: retrieve, then parse. */
  private def evalFeatures(storage: StorageService, keys: Array[Long]): Iterator[(Array[Float], Int)] =
    storage.retrieve(keys, EvalThreads).flatMap { c =>
      (0 until c.size).iterator.map(i => (parser.parse(c.payloads(i)), c.labels(i).toInt))
    }

  override def replays(out: mutable.Map[String, Double]): Unit = lastTracedDir.foreach { dir =>
    val full    = pipeline("full", rc.seed)
    val storage = new StorageService(registry, plainFs, SendBuffer)
    val tss     = new TriggerSampleStorage(plainFs, s"$dir/full/tss")
    val sets    = (0 until NumYears).map { t =>
      val parts = tss.numPartitions(t)
      TriggerTrainingSet(t, parts, (0 until parts).map(tss.partitionSize(t, _)).sum, tss)
    }
    val finalWeights = new ModelStorage(plainFs, s"$dir/full/models", FullModelInterval).load(NumYears - 1)

    rc.op("replay_training") {
      // Every trigger training set of the full pipeline, one epoch each,
      // through the pipeline's own dataloader settings.
      val model = Harness.clocModel(FeatureDim, NumClasses)
      model.setWeights(finalWeights)
      val stats = sets.map { tts =>
        val ds = new OnlineDataset(new TssSource(tts), storage, parser, IdentityTransform, full.dataloader)
        TrainLoop.run(ds.batches(), model, tr)(_ => ())
      }
      ensure(stats.map(_.samples).sum == NumYears * SamplesPerYear, "replay trained a different sample count")
      val waits = stats.flatMap(_.batchWaitMs)
      out("trainer.batch_wait_ms_p50") = Stats.median(waits)
      out("trainer.batch_wait_ms_p99") = Stats.percentile(waits, 99)
      out("trainer.stall_share") = stats.map(_.totalWaitNs).sum.toDouble / stats.map(_.wallNs).sum
      out("trainer.step_ms") = stats.map(_.stepNs).sum / 1e6
    }
    rc.op("replay_lookup") {
      val requests = evalSets.flatMap(s => Replay.splitEven(s.keys, EvalThreads))
      val ms = Replay.lookupMs(registry, requests)
      out("storage.lookup_ms_per_request") = ms.sum / ms.length
      out("storage.lookup_requests") = ms.length.toDouble
    }
    rc.op("replay_retrieve_parse") {
      val shares = for (tts <- sets; p <- 0 until tts.numPartitions; w <- 0 until full.dataloader.numWorkers)
        yield tss.readWorkerShare(tts.triggerId, p, w, full.dataloader.numWorkers).map(_.key).toArray
      val (payloads, ns) = Replay.retrieve(storage, shares, full.dataloader.storageThreads)
      ensure(payloads.length == NumYears * SamplesPerYear, s"replay retrieved ${payloads.length} samples")
      out("storage.retrieve_samples_per_s") = payloads.length / (ns / 1e9)
      out("trainer.parse_us_per_sample") = Replay.parseUsPerSample(parser, IdentityTransform, payloads)
    }
    rc.op("replay_evaluate") {
      val model = Harness.clocModel(FeatureDim, NumClasses)
      model.setWeights(finalWeights)
      val ms = evalSets.map { set =>
        val t0 = System.nanoTime()
        val res = Evaluator.evaluate(model, evalFeatures(storage, set.keys))
        ensure(res.forall(_.numSamples == SamplesPerYear), s"eval set ${set.name} not evaluated in full")
        (System.nanoTime() - t0) / 1e6
      }
      out("evaluator.eval_ms_per_set") = Stats.median(ms)
    }
  }

  override def close(): Unit = Option(registry).foreach(_.close())
}
