package repro.trainer

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.{roundRobin, withTmpDir}
import repro.bench.Harness
import repro.datagen.CriteoLite
import repro.storage.{FileWrapperType, LocalFileSystemWrapper, SampleRegistry}

class LocalFileDatasetSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  private def gen(dir: String, n: Int): Seq[String] = {
    val r = new SampleRegistry
    CriteoLite.generate(fs, r, dir, n, samplesPerFile = 50)
    r.close()
    fs.list(dir)
  }

  test("emits every sample of every file exactly once") {
    withTmpDir { dir =>
      val files = gen(dir, 260)
      for (workers <- Seq(1, 2, 4, 8)) {
        val ds = new LocalFileDataset(fs, files, CriteoLite.RecordSize,
          new CriteoBytesParser(16), IdentityTransform, workers, batchSize = 32)
        val n = ds.batches().map(_.size).sum
        assert(n == 260, s"workers=$workers delivered $n")
      }
    }
  }

  test("labels match the generator") {
    withTmpDir { dir =>
      val files = gen(dir, 100)
      val ds = new LocalFileDataset(fs, files, CriteoLite.RecordSize,
        new CriteoBytesParser(16), IdentityTransform, 2, 32)
      val labels = ds.batches().flatMap(_.labels).toSeq.sorted
      val expect = (1L to 100L).map(CriteoLite.labelOf(_, 42L).toInt).sorted
      assert(labels == expect)
    }
  }

  test("more workers than files still delivers everything") {
    withTmpDir { dir =>
      val files = gen(dir, 60) // 2 files
      val ds = new LocalFileDataset(fs, files, CriteoLite.RecordSize,
        new CriteoBytesParser(16), IdentityTransform, 6, 16)
      assert(ds.batches().map(_.size).sum == 60)
    }
  }

  test("weights default to 1 (no sample-level selection)") {
    withTmpDir { dir =>
      val files = gen(dir, 50)
      val ds = new LocalFileDataset(fs, files, CriteoLite.RecordSize,
        new CriteoBytesParser(16), IdentityTransform, 1, 16)
      assert(ds.batches().flatMap(_.weights).forall(_ == 1.0))
    }
  }

  /** n single-sample files (file i has label i) in name order. */
  private def genSingle(dir: String, n: Int): Seq[String] =
    (0 until n).map { i =>
      val path = f"$dir/s$i%03d.bin"
      fs.write(path, new Array[Byte](8))
      fs.write(s"$path.label", i.toString.getBytes)
      path
    }

  test("batches follow the round-robin order of the file-to-worker assignment") {
    withTmpDir { dir =>
      val files = genSingle(dir, 45)
      for (workers <- Seq(1, 2, 4); batch <- Seq(4, 5)) {
        val ds = new LocalFileDataset(fs, files, FileWrapperType.SingleSample,
          new ClocBytesParser(2), IdentityTransform, workers, batch)
        // File i goes to worker i % workers; each worker reads its files in order.
        val perWorker = (0 until workers).map(w => files.indices.filter(_ % workers == w))
        assert(ds.batches().map(_.labels.toSeq).toSeq == roundRobin(perWorker, batch),
          s"workers=$workers batch=$batch")
      }
    }
  }

  test("the CLOC local baseline fails on a missing label sidecar") {
    withTmpDir { dir =>
      val corpus = Harness.clocCorpus(dir, samplesPerYear = 10, numClasses = 3,
        featureDim = 4, partitionSize = 50, years = 2004 to 2005)
      try {
        fs.delete(fs.list(corpus.dataDir).filter(_.endsWith(".label")).head)
        intercept[java.io.IOException] {
          Harness.localSingleSampleThroughput(corpus, 2, 8, new ClocBytesParser(4),
            IdentityTransform, Harness.clocModel(4, 3))
        }
      } finally corpus.close()
    }
  }

  test("config validation") {
    intercept[IllegalArgumentException] {
      new LocalFileDataset(fs, Seq.empty, 160, new CriteoBytesParser(16),
        IdentityTransform, 0, 16)
    }
    intercept[IllegalArgumentException] {
      new LocalFileDataset(fs, Seq.empty, 4, new CriteoBytesParser(16),
        IdentityTransform, 1, 16)
    }
  }
}
